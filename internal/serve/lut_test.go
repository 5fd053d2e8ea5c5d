package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdn3d/internal/query"
	"pdn3d/internal/solve"
	"pdn3d/internal/sparse"
)

// TestLUTRequestsKeepNoSolveMemory: a LUT build keeps each point's max IR
// drop and nothing of its solves, so tables for new grids on a cached
// design leave the heap flat. A build that kept one full IR vector per
// grid point would hold ~1.1 MB per request here, 26 MB over the 24.
func TestLUTRequestsKeepNoSolveMemory(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	lutAt := func(io float64) {
		t.Helper()
		resp, body := post(t, ts.URL+"/v1/lut", fmt.Sprintf(`{"bench":"ddr3-off","io_levels":[%g]}`, io))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lut io %g: status %d, body %s", io, resp.StatusCode, body)
		}
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	lutAt(1.0) // builds the design's analyzer and solver
	before := heap()
	for i := 0; i < 24; i++ {
		lutAt(0.3 + 0.01*float64(i))
	}
	if growth := heap() - before; growth > 5<<20 {
		t.Errorf("24 LUT requests grew the post-GC heap by %.1f MB, want < 5 MB", float64(growth)/(1<<20))
	}
}

// holdSolver parks the first solve it runs until that solve's request is
// cancelled, so a test can cancel a LUT build mid-flight; every other
// solve runs straight through.
type holdSolver struct {
	solve.Solver
	armed  *atomic.Bool
	parked chan<- struct{}
}

func (h holdSolver) Solve(b []float64, cg solve.CGOptions) ([]float64, solve.CGStats, error) {
	if h.armed.CompareAndSwap(true, false) {
		h.parked <- struct{}{}
		// A build that never wires cancellation into its solves would
		// park here for good; give up after a bound so the test fails
		// instead of hanging.
		for stop := time.Now().Add(5 * time.Second); time.Now().Before(stop); time.Sleep(time.Millisecond) {
			if cg.Cancel != nil && cg.Cancel() != nil {
				break
			}
		}
	}
	return h.Solver.Solve(b, cg)
}

// TestLUTCancelStopsSolving: a LUT request whose client goes away stops
// its build short of the full grid, and a request waiting on the same
// table builds it anew and gets its 200.
func TestLUTCancelStopsSolving(t *testing.T) {
	var armed atomic.Bool
	parked := make(chan struct{}, 1)
	armed.Store(true)
	solve.Register("test-lut-hold", func(a *sparse.CSR, opt solve.Options) (solve.Solver, error) {
		opt.Method = solve.MethodCGIC0
		inner, err := solve.New(a, opt)
		if err != nil {
			return nil, err
		}
		return holdSolver{Solver: inner, armed: &armed, parked: parked}, nil
	})
	s, ts := newTestServer(t, Config{method: "test-lut-hold", Workers: 1})
	const body = `{"bench":"ddr3-off"}` // the default grid: 3 levels x 81 states
	const fullBuild = 3 * (1 + 4*2)

	send := func(ctx context.Context, status chan<- int) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/lut", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			status <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader, waiter := make(chan int, 1), make(chan int, 1)
	go send(ctx, leader)
	select {
	case <-parked:
	case <-time.After(30 * time.Second):
		t.Fatal("the leader's build never reached a solve")
	}
	go send(context.Background(), waiter)
	// The waiter is admitted, and then joins the leader's flight.
	for deadline := time.Now().Add(30 * time.Second); s.admitted.Value() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the waiting request was never admitted")
		}
	}
	cancel()
	if st := <-leader; st != 0 {
		t.Errorf("the cancelled request got status %d", st)
	}
	if st := <-waiter; st != http.StatusOK {
		t.Fatalf("the waiting request got status %d, want 200", st)
	}
	r, err := query.Query{Bench: "ddr3-off", Pitch: testPitch}.ResolveDesign()
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.analyzerFor(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	// The waiter's own build ran every solve; the rest are the leader's.
	if n := a.Solves() - fullBuild; n >= fullBuild {
		t.Errorf("the cancelled build ran %d solves, want fewer than the full grid's %d", n, fullBuild)
	}
}
