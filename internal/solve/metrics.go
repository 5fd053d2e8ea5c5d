package solve

import (
	"pdn3d/internal/obs"
)

// iterBounds is the fixed bucket layout for per-solve iteration counts.
// Fixed bounds are what keep the bucket tallies deterministic across
// worker counts (see the obs determinism contract).
var iterBounds = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// solverMetrics is the per-method instrument set. The zero value (from a
// nil registry) has nil metrics throughout, and every obs recording method
// is a no-op on nil, so uninstrumented solves pay only nil checks.
type solverMetrics struct {
	solves     *obs.Counter
	iterations *obs.Counter
	iterHist   *obs.Histogram
	residual   *obs.Gauge
	errors     *obs.Counter
	setup      *obs.Timer
	apply      *obs.Timer
	solveTime  *obs.Timer
}

// newSolverMetrics roots one method's metrics at "solve.<method>".
func newSolverMetrics(r *obs.Registry, method string) solverMetrics {
	if r == nil {
		return solverMetrics{}
	}
	p := "solve." + method
	return solverMetrics{
		solves:     r.Counter(p + ".solves"),
		iterations: r.Counter(p + ".iterations_total"),
		iterHist:   r.Histogram(p+".iterations", iterBounds),
		residual:   r.Gauge(p + ".residual_max"),
		errors:     r.Counter(p + ".errors"),
		setup:      r.Timer(p + ".setup_time"),
		apply:      r.Timer(p + ".precond_apply"),
		solveTime:  r.Timer(p + ".solve_time"),
	}
}

// record books one finished solve. The residual gauge holds the maximum
// over all solves — order-independent, so deterministic under concurrency.
func (m solverMetrics) record(st CGStats, err error) {
	m.solves.Add(1)
	m.iterations.Add(int64(st.Iterations))
	m.iterHist.Observe(float64(st.Iterations))
	m.residual.SetMax(st.Residual)
	if err != nil {
		m.errors.Add(1)
	}
}
