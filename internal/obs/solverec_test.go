package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

func TestSolveRecorderNilSafe(t *testing.T) {
	var b *SolveBuffer
	r := b.StartSolveRecord()
	if r != nil {
		t.Fatalf("nil buffer must hand out a nil recorder, got %v", r)
	}
	r.Begin(10)
	r.SetSolver("cg-ic0", "ic0")
	r.SetTrace("t-1")
	r.RecordIter(0.5, 1e-3)
	r.RecordBeta(0.25)
	r.Finish(1, 1e-3, true, TermConverged)
	if rec := r.Commit(); rec.ID != "" {
		t.Fatalf("nil recorder Commit must return the zero record, got %+v", rec)
	}
	b.Add(SolveRecord{})
	if _, _, added := b.Snapshot(); added != 0 {
		t.Fatalf("nil buffer Snapshot added = %d, want 0", added)
	}
	if _, ok := b.Find("s-1"); ok {
		t.Fatal("nil buffer Find must miss")
	}
}

func TestSolveRecorderBasicCommit(t *testing.T) {
	b := NewSolveBuffer(4)
	r := b.StartSolveRecord()
	r.Begin(100)
	r.SetSolver("cg-ic0", "ic0")
	r.SetTrace("trace-abc")
	r.RecordIter(0.5, 1e-1)
	r.RecordBeta(0.25)
	r.RecordIter(0.4, 1e-9)
	r.Finish(2, 1e-9, true, TermConverged)
	rec := r.Commit()

	if rec.ID == "" || rec.TraceID != "trace-abc" || rec.Method != "cg-ic0" ||
		rec.Precond != "ic0" || rec.N != 100 {
		t.Fatalf("identity fields wrong: %+v", rec)
	}
	if rec.Iterations != 2 || rec.Residual != 1e-9 || !rec.Converged || rec.Termination != TermConverged {
		t.Fatalf("final stats wrong: %+v", rec)
	}
	if want := []float64{0.5, 0.4}; len(rec.Alphas) != 2 || rec.Alphas[0] != want[0] || rec.Alphas[1] != want[1] {
		t.Fatalf("alphas = %v, want %v", rec.Alphas, want)
	}
	if len(rec.Betas) != 1 || rec.Betas[0] != 0.25 {
		t.Fatalf("betas = %v, want [0.25]", rec.Betas)
	}
	if len(rec.Residuals) != 2 || rec.ResidualStride != 1 {
		t.Fatalf("residuals = %v stride %d, want 2 samples at stride 1", rec.Residuals, rec.ResidualStride)
	}
	if rec.CondEst <= 0 {
		t.Fatalf("cond_est = %g, want positive", rec.CondEst)
	}

	// Commit is idempotent: the second call returns the same record and
	// does not re-add to the buffer.
	rec2 := r.Commit()
	if rec2.ID != rec.ID {
		t.Fatalf("second Commit returned a different record: %q vs %q", rec2.ID, rec.ID)
	}
	if _, _, added := b.Snapshot(); added != 1 {
		t.Fatalf("added = %d after double Commit, want 1", added)
	}

	// The exported record must marshal cleanly (no Inf/NaN).
	if _, err := json.Marshal(rec); err != nil {
		t.Fatalf("record does not marshal: %v", err)
	}
}

func TestSolveRecorderDecimation(t *testing.T) {
	b := NewSolveBuffer(1)
	r := b.StartSolveRecord()
	r.Begin(10)
	const iters = 5000
	for i := 0; i < iters; i++ {
		r.RecordIter(0.5, 1.0/float64(i+1))
		r.RecordBeta(0.25)
	}
	r.Finish(iters, 1.0/iters, false, TermMaxIter)
	rec := r.Commit()

	if len(rec.Residuals) > SolveResidualCap {
		t.Fatalf("residual history %d exceeds cap %d", len(rec.Residuals), SolveResidualCap)
	}
	if rec.ResidualStride < 2 || rec.ResidualStride&(rec.ResidualStride-1) != 0 {
		t.Fatalf("stride %d: want a power of two > 1 after decimation", rec.ResidualStride)
	}
	// Decimation keeps samples in recording order.
	for i := 1; i < len(rec.Residuals); i++ {
		if rec.Residuals[i] >= rec.Residuals[i-1] {
			t.Fatalf("residual order broken at %d: %g >= %g", i, rec.Residuals[i], rec.Residuals[i-1])
		}
	}
	if len(rec.Alphas) != SolveCoeffCap || len(rec.Betas) != SolveCoeffCap || !rec.Truncated {
		t.Fatalf("coeff capture: %d alphas, %d betas, truncated=%v; want caps %d and truncated",
			len(rec.Alphas), len(rec.Betas), rec.Truncated, SolveCoeffCap)
	}
}

func TestSolveRecorderAllocs(t *testing.T) {
	b := NewSolveBuffer(8)
	allocs := testing.AllocsPerRun(20, func() {
		r := b.StartSolveRecord()
		r.Begin(100)
		r.SetSolver("cg-amg", "amg")
		for i := 0; i < 400; i++ {
			r.RecordIter(0.5, 1.0/float64(i+1))
			r.RecordBeta(0.25)
		}
		r.Finish(400, 1.0/400, true, TermConverged)
		r.Commit()
	})
	// Recorder struct + backing array at Start; snapshot + cond scratch +
	// ID string at Commit; buffer growth is amortized away by reuse.
	if allocs > 8 {
		t.Fatalf("recorded solve costs %.0f allocs, budget 8", allocs)
	}
}

func TestSolveRecorderStagnation(t *testing.T) {
	// Residual stops improving long before the budget runs out →
	// stagnated.
	b := NewSolveBuffer(1)
	r := b.StartSolveRecord()
	r.Begin(10)
	for i := 0; i < 20; i++ {
		r.RecordIter(0.5, 1.0/float64(i+1)) // improving
	}
	for i := 0; i < stagnationWindow+5; i++ {
		r.RecordIter(0.5, 0.1) // flat
	}
	r.Finish(20+stagnationWindow+5, 0.1, false, TermMaxIter)
	if rec := r.Commit(); rec.Termination != TermStagnated {
		t.Fatalf("termination = %q, want %q", rec.Termination, TermStagnated)
	}

	// Still improving at the budget → plain maxiter.
	r2 := b.StartSolveRecord()
	r2.Begin(10)
	for i := 0; i < 200; i++ {
		r2.RecordIter(0.5, 1.0/float64(i+1))
	}
	r2.Finish(200, 1.0/200, false, TermMaxIter)
	if rec := r2.Commit(); rec.Termination != TermMaxIter {
		t.Fatalf("termination = %q, want %q", rec.Termination, TermMaxIter)
	}

	// Converged exits never reclassify.
	r3 := b.StartSolveRecord()
	r3.Begin(10)
	for i := 0; i < stagnationWindow+5; i++ {
		r3.RecordIter(0.5, 0.1)
	}
	r3.Finish(stagnationWindow+5, 1e-9, true, TermConverged)
	if rec := r3.Commit(); rec.Termination != TermConverged {
		t.Fatalf("termination = %q, want %q", rec.Termination, TermConverged)
	}
}

func TestSolveBufferRetention(t *testing.T) {
	b := NewSolveBuffer(3)
	// Iteration counts chosen so the worst set (90, 80, 70) differs from
	// the recent set (the last three added).
	iters := []int{10, 90, 20, 80, 30, 70, 40}
	for i, n := range iters {
		b.Add(SolveRecord{ID: fmt.Sprintf("s-%d", i+1), Iterations: n})
	}
	recent, worst, added := b.Snapshot()
	if added != int64(len(iters)) {
		t.Fatalf("added = %d, want %d", added, len(iters))
	}
	wantRecent := []string{"s-7", "s-6", "s-5"} // newest first
	for i, id := range wantRecent {
		if recent[i].ID != id {
			t.Fatalf("recent[%d] = %q, want %q (recent=%v)", i, recent[i].ID, id, ids(recent))
		}
	}
	wantWorst := []int{90, 80, 70} // descending iterations
	for i, n := range wantWorst {
		if worst[i].Iterations != n {
			t.Fatalf("worst[%d] = %d iterations, want %d (worst=%v)", i, worst[i].Iterations, n, ids(worst))
		}
	}
}

func ids(recs []SolveRecord) []string {
	out := make([]string, len(recs))
	for i := range recs {
		out[i] = recs[i].ID
	}
	return out
}

func TestSolveBufferFind(t *testing.T) {
	b := NewSolveBuffer(2)
	b.Add(SolveRecord{ID: "s-1", TraceID: "tr-a", Iterations: 5})
	b.Add(SolveRecord{ID: "s-2", TraceID: "tr-a", Iterations: 9})
	b.Add(SolveRecord{ID: "s-3", TraceID: "tr-b", Iterations: 1})

	if rec, ok := b.Find("s-2"); !ok || rec.Iterations != 9 {
		t.Fatalf("Find(s-2) = %+v, %v", rec, ok)
	}
	// s-1 was evicted from recent (cap 2) but survives in worst? cap 2
	// worst keeps {9, 5}. So s-1 is findable via the worst list.
	if rec, ok := b.Find("s-1"); !ok || rec.Iterations != 5 {
		t.Fatalf("Find(s-1) via worst list = %+v, %v", rec, ok)
	}
	// Trace lookup returns the most recent record for the trace.
	if rec, ok := b.Find("tr-a"); !ok || rec.ID != "s-2" {
		t.Fatalf("Find(tr-a) = %+v, %v; want s-2", rec, ok)
	}
	if _, ok := b.Find("nope"); ok {
		t.Fatal("Find(nope) must miss")
	}
}

func TestSolveBufferHistograms(t *testing.T) {
	reg := NewRegistry()
	b := NewSolveBuffer(2)
	b.IterHist = reg.Histogram("solve.iterations", []float64{10, 100})
	b.CondHist = reg.Histogram("solve.cond_est", []float64{10, 1000})
	b.BalanceHist = reg.Histogram("solve.balance", []float64{1e-9, 1e-6})
	b.Add(SolveRecord{ID: "s-1", Iterations: 50, CondEst: 500, Balance: 3e-8})
	b.Add(SolveRecord{ID: "s-2", Iterations: 5}) // no estimate, no balance
	if n := b.IterHist.Count(); n != 2 {
		t.Fatalf("iteration histogram count = %d, want 2", n)
	}
	if n := b.CondHist.Count(); n != 1 {
		t.Fatalf("cond histogram count = %d, want 1 (zero estimates skipped)", n)
	}
	if n, mid := b.BalanceHist.Count(), b.BalanceHist.Bucket(1); n != 1 || mid != 1 {
		t.Fatalf("balance histogram count = %d, (1e-9, 1e-6] bucket = %d; want 1 and 1 (absent balances skipped)", n, mid)
	}
}

func TestCondFromLanczosKnownTridiagonal(t *testing.T) {
	// alphas = [1, 0.5], betas = [0.25] define
	//   T = [ 1    0.5  ]
	//       [ 0.5  2.25 ]
	// whose eigenvalues are (3.25 ± sqrt(1.25² + 4·0.25²·…))/2 — computed
	// here in closed form for a 2×2 symmetric matrix.
	a, bdiag, c := 1.0, 2.25, 0.5
	tr, det := a+bdiag, a*bdiag-c*c
	disc := math.Sqrt(tr*tr - 4*det)
	lmax, lmin := (tr+disc)/2, (tr-disc)/2
	want := lmax / lmin

	got := CondFromLanczos([]float64{1, 0.5}, []float64{0.25})
	if math.Abs(got-want)/want > 1e-10 {
		t.Fatalf("CondFromLanczos = %.12g, want %.12g", got, want)
	}
}

func TestCondFromLanczosDiagonal(t *testing.T) {
	// β = 0 decouples the tridiagonal: T = diag(1/α₀, 1/α₁).
	got := CondFromLanczos([]float64{1, 0.25}, []float64{0})
	if want := 4.0; math.Abs(got-want)/want > 1e-10 {
		t.Fatalf("CondFromLanczos = %.12g, want %g", got, want)
	}
}

func TestCondFromLanczosDegenerate(t *testing.T) {
	cases := []struct {
		name   string
		alphas []float64
		betas  []float64
		want   float64
	}{
		{"empty", nil, nil, 0},
		{"single", []float64{0.5}, nil, 1},
		{"single-with-beta", []float64{0.5}, []float64{0.1}, 1},
		{"negative-alpha", []float64{-1, 0.5}, []float64{0.25}, 0},
		{"zero-alpha", []float64{0, 0.5}, []float64{0.25}, 0},
		{"nan-alpha", []float64{math.NaN(), 0.5}, []float64{0.25}, 0},
		{"negative-beta", []float64{1, 0.5}, []float64{-0.25}, 0},
	}
	for _, c := range cases {
		if got := CondFromLanczos(c.alphas, c.betas); got != c.want {
			t.Errorf("%s: CondFromLanczos = %g, want %g", c.name, got, c.want)
		}
	}
	// Degenerate results must stay JSON-marshalable (never Inf).
	rec := SolveRecord{CondEst: CondFromLanczos([]float64{0}, nil)}
	if _, err := json.Marshal(rec); err != nil {
		t.Fatalf("degenerate estimate breaks marshaling: %v", err)
	}
}

func TestCondFromLanczosUsesPrefixOnTruncation(t *testing.T) {
	// More betas than alphas-1 (maxiter exit shape) must not panic and
	// must use the consistent prefix.
	got := CondFromLanczos([]float64{1, 0.5}, []float64{0.25, 0.5, 0.75})
	if got <= 0 {
		t.Fatalf("CondFromLanczos = %g, want positive", got)
	}
}
