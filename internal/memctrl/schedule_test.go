package memctrl

import (
	"testing"

	"pdn3d/internal/lut"
	"pdn3d/internal/memstate"
)

// runOne drives a tiny request stream through the simulator and returns
// the result.
func runOne(t *testing.T, cfg Config, reqs []Request) *Result {
	t.Helper()
	res, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRowHitPipelines(t *testing.T) {
	// Three same-row reads: one activation, three hits.
	cfg := stdConfig()
	reqs := []Request{
		{ID: 0, Arrival: 0, Die: 0, Bank: 0, Row: 7},
		{ID: 1, Arrival: 1, Die: 0, Bank: 0, Row: 7},
		{ID: 2, Arrival: 2, Die: 0, Bank: 0, Row: 7},
	}
	res := runOne(t, cfg, reqs)
	if res.Activations != 1 {
		t.Errorf("activations = %d, want 1", res.Activations)
	}
	if res.RowHits != 3 {
		t.Errorf("row hits = %d, want 3", res.RowHits)
	}
	// Reads pipeline at tCCD on one bank.
	gap := reqs[2].Done - reqs[1].Done
	if gap != int64(cfg.Timing.TCCD) && gap != int64(cfg.Timing.BurstCycles+cfg.Timing.BusGap) {
		t.Errorf("read spacing = %d, want tCCD %d or bus slot %d",
			gap, cfg.Timing.TCCD, cfg.Timing.BurstCycles+cfg.Timing.BusGap)
	}
}

func TestRowConflictPrecharges(t *testing.T) {
	// Two reads to the same bank, different rows: ACT, read, PRE, ACT.
	cfg := stdConfig()
	reqs := []Request{
		{ID: 0, Arrival: 0, Die: 0, Bank: 0, Row: 1},
		{ID: 1, Arrival: 1, Die: 0, Bank: 0, Row: 2},
	}
	res := runOne(t, cfg, reqs)
	if res.Activations != 2 {
		t.Errorf("activations = %d, want 2", res.Activations)
	}
	// The second read cannot finish before tRAS + tRP + tRCD + tCL.
	tm := cfg.Timing
	minDone := int64(tm.TRAS + tm.TRP + tm.TRCD + tm.TCL + tm.BurstCycles)
	if reqs[1].Done < minDone {
		t.Errorf("conflicting read done at %d, min possible %d", reqs[1].Done, minDone)
	}
}

func TestFirstReadLatency(t *testing.T) {
	cfg := stdConfig()
	reqs := []Request{{ID: 0, Arrival: 0, Die: 2, Bank: 3, Row: 9}}
	runOne(t, cfg, reqs)
	tm := cfg.Timing
	// Command issues on cycle 1 (arrival admitted, then scheduled); the
	// data ends after tRCD + tCL + burst, give or take a cycle of
	// scheduling skew.
	want := int64(tm.TRCD + tm.TCL + tm.BurstCycles)
	if reqs[0].Done < want || reqs[0].Done > want+3 {
		t.Errorf("cold read done at %d, want ~%d", reqs[0].Done, want)
	}
}

func TestBusSerializesAcrossBanks(t *testing.T) {
	// Many same-cycle requests on different dies: data bursts must not
	// overlap on the single channel.
	cfg := stdConfig()
	cfg.Policy = PolicyStandard
	var reqs []Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, Request{ID: i, Arrival: 0, Die: i % 4, Bank: i, Row: 5})
	}
	runOne(t, cfg, reqs)
	seen := map[int64]bool{}
	for _, r := range reqs {
		for c := r.Done - int64(cfg.Timing.BurstCycles); c < r.Done; c++ {
			if seen[c] {
				t.Fatalf("bus cycle %d used twice", c)
			}
			seen[c] = true
		}
	}
}

func TestMultiChannelParallelism(t *testing.T) {
	// With 4 channels, 4 same-cycle reads on banks mapping to different
	// channels finish sooner than on one channel.
	mk := func(channels int) int64 {
		cfg := stdConfig()
		cfg.Channels = channels
		reqs := []Request{
			{ID: 0, Arrival: 0, Die: 0, Bank: 0, Row: 1},
			{ID: 1, Arrival: 0, Die: 1, Bank: 1, Row: 1},
			{ID: 2, Arrival: 0, Die: 2, Bank: 2, Row: 1},
			{ID: 3, Arrival: 0, Die: 3, Bank: 3, Row: 1},
		}
		res, err := Simulate(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if c1, c4 := mk(1), mk(4); c4 > c1 {
		t.Errorf("4 channels (%d cycles) should not be slower than 1 (%d)", c4, c1)
	}
}

func TestQueueBackpressure(t *testing.T) {
	// A slow standard config with a tiny queue must still finish, with
	// arrivals held back by queue depth.
	cfg := stdConfig()
	cfg.QueueDepth = 4
	wl := DefaultWorkload(4, 8)
	wl.Requests = 500
	reqs, err := Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	res := runOne(t, cfg, reqs)
	if res.Cycles <= 0 {
		t.Fatal("no progress")
	}
	for i, r := range reqs {
		if r.Done == 0 {
			t.Fatalf("request %d never completed", i)
		}
	}
}

func TestDeterministicSimulation(t *testing.T) {
	cfg := stdConfig()
	wl := DefaultWorkload(4, 8)
	wl.Requests = 800
	r1, _ := Generate(wl)
	r2, _ := Generate(wl)
	a := runOne(t, cfg, r1)
	b := runOne(t, cfg, r2)
	if a.Cycles != b.Cycles || a.Activations != b.Activations || a.RowHits != b.RowHits {
		t.Errorf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

// admitted returns a sim whose queue holds reqs, admitted in stream order
// by the cycle's own admitArrivals once all of them have arrived.
func admitted(cfg Config, reqs []Request) *sim {
	s := newSim(cfg, reqs, nil)
	for _, r := range reqs {
		s.now = max(s.now, r.Arrival)
	}
	s.admitArrivals()
	return s
}

func TestDistRPrefersIdleDies(t *testing.T) {
	s := admitted(DefaultConfig(PolicyStandard, DistR, nil, 0), []Request{
		{ID: 0, Arrival: 0, Die: 0, Bank: 0},
		{ID: 1, Arrival: 1, Die: 1, Bank: 0},
		{ID: 2, Arrival: 2, Die: 2, Bank: 0},
		{ID: 3, Arrival: 3, Die: 3, Bank: 0},
	})
	copy(s.openPerDie, []int{2, 0, 1, 0})
	order := s.priorityOrder()
	if first := order[0]; first.Die != 1 {
		t.Errorf("DistR first pick die %d (ID %d), want die 1 (fewest open, earliest)", first.Die, first.ID)
	}
	if last := order[len(order)-1]; last.Die != 0 {
		t.Errorf("DistR last pick die %d, want the busiest die 0", last.Die)
	}
}

func TestFCFSOrder(t *testing.T) {
	s := admitted(DefaultConfig(PolicyStandard, FCFS, nil, 0), []Request{
		{ID: 0, Arrival: 5, Die: 1, Bank: 0},
		{ID: 1, Arrival: 2, Die: 1, Bank: 1},
		{ID: 2, Arrival: 9, Die: 0, Bank: 0},
	})
	copy(s.openPerDie, []int{0, 9, 0, 0})
	order := s.priorityOrder()
	if len(order) != 3 || order[0].ID != 1 || order[1].ID != 0 || order[2].ID != 2 {
		ids := make([]int, len(order))
		for i, r := range order {
			ids[i] = r.ID
		}
		t.Errorf("FCFS order wrong: IDs %v, want [1 0 2]", ids)
	}
}

// The simulation cycle reuses the sim's buffers, so a whole Simulate
// allocates a bounded handful of times (set-up, the queue, the ACT
// history) whatever the request count, under each of Table 6's
// configurations.
func TestSimulateAllocatesLittle(t *testing.T) {
	levels := []float64{0.25, 0.5, 1.0}
	var pts []lut.Point
	for _, c := range memstate.EnumerateCounts(4, 2) {
		for _, io := range levels {
			v := 0.004 + 0.003*io
			for d, n := range c {
				v += float64(n) * (0.002 + 0.001*float64(d)) * (0.5 + io)
			}
			pts = append(pts, lut.Point{Counts: c, IO: io, MaxIR: v})
		}
	}
	table, err := lut.FromPoints(4, 2, levels, pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		policy IRPolicy
		sched  Scheduler
		limit  float64
	}{
		{PolicyStandard, FCFS, 0},
		{PolicyIRAware, FCFS, 0.016},
		{PolicyIRAware, DistR, 0.016},
	} {
		cfg := DefaultConfig(tc.policy, tc.sched, table, tc.limit)
		wl := DefaultWorkload(cfg.Dies, cfg.BanksPerDie)
		wl.Requests = 4000
		reqs, err := Generate(wl)
		if err != nil {
			t.Fatal(err)
		}
		work := make([]Request, len(reqs))
		var res *Result
		allocs := testing.AllocsPerRun(2, func() {
			copy(work, reqs)
			if res, err = Simulate(cfg, work); err != nil {
				t.Fatal(err)
			}
		})
		if res.Blocked == 0 && tc.policy == PolicyIRAware {
			t.Errorf("%s/%s: the limit never bound, so the LUT checks went untested", tc.policy, tc.sched)
		}
		t.Logf("%s/%s: %g allocations, %d blocked", tc.policy, tc.sched, allocs, res.Blocked)
		if allocs > 64 {
			t.Errorf("%s/%s: Simulate allocated %g times at %d requests, want <= 64", tc.policy, tc.sched, allocs, len(reqs))
		}
	}
}
