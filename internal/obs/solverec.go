package obs

// The solve flight recorder: a bounded, allocation-frugal per-solve
// record of how an iterative solve actually went — the decimated
// residual trajectory, the CG α/β coefficients (which define the Lanczos
// tridiagonal and therefore a free condition-number estimate), the
// preconditioner that really ran, and a classified termination reason.
// SolveBuffer retains finished records in a Retain ranked by iterations:
// the N most recent plus the N worst, each bounded, so a long-running
// server holds a fixed amount of solve forensics no matter how much
// traffic it serves.
//
// Everything a record carries is derived from the solver's deterministic
// kernels, so for one workload the record shapes (residual histories,
// coefficients, κ estimates, termination reasons) are byte-identical at
// any worker count; only the record and trace IDs are run-local.
// Schema and decimation policy are documented in DESIGN.md §5i.

import (
	"math"
	"strconv"
	"sync/atomic"
)

// Termination reasons a SolveRecord can carry. The CG core reports
// converged/maxiter/cancelled/error; the recorder upgrades a maxiter
// exit to stagnated when the best residual is old news (see
// stagnationWindow).
const (
	// TermConverged: the solve met its relative-residual tolerance.
	TermConverged = "converged"
	// TermMaxIter: the iteration budget ran out while the residual was
	// still making progress.
	TermMaxIter = "maxiter"
	// TermCancelled: the caller's Cancel hook aborted the solve.
	TermCancelled = "cancelled"
	// TermStagnated: the budget ran out AND the residual had not
	// improved for at least stagnationWindow iterations — the signature
	// of an ill-conditioned or near-singular system, as opposed to a
	// budget merely set too low.
	TermStagnated = "stagnated"
	// TermError: the solve failed structurally (non-SPD pivot, dense
	// factorization error) rather than by running out of budget.
	TermError = "error"
)

const (
	// SolveResidualCap bounds the decimated residual history per record.
	// When the ring fills, every other retained sample is dropped and
	// the sampling stride doubles, so arbitrarily long solves keep a
	// fixed-size, log-thinned trajectory without reallocating.
	SolveResidualCap = 128
	// SolveCoeffCap bounds the α/β capture per record. Lanczos Ritz
	// extremes converge long before CG does, so a κ estimate from the
	// first SolveCoeffCap coefficients of a longer solve stays useful;
	// the record marks the truncation.
	SolveCoeffCap = 1024
	// stagnationWindow is how many iterations the best residual must be
	// stale for a maxiter exit to classify as stagnated.
	stagnationWindow = 50
)

// SolveRecord is one finished solve shaped for JSON export
// (/debug/solves). Field names are a compatibility contract; see
// DESIGN.md §5i.
type SolveRecord struct {
	// ID identifies the record within its buffer ("s-<n>").
	ID string `json:"solve_id"`
	// TraceID links the solve to the request trace that ran it
	// (/debug/requests?id=), when one was active.
	TraceID string `json:"trace_id,omitempty"`
	// Method is the registry name of the solver ("cg-ic0", "cg-amg", …).
	Method string `json:"method,omitempty"`
	// Precond names the method's preconditioner ("ic0", "amg").
	Precond string `json:"precond,omitempty"`
	// N is the system dimension.
	N int `json:"n"`
	// Iterations, Residual, Converged are the solver's own final story.
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
	Converged  bool    `json:"converged"`
	// Termination classifies the exit: converged, maxiter, cancelled,
	// stagnated, or error. Empty when the solve never reached the
	// iteration loop.
	Termination string `json:"termination,omitempty"`
	// Balance is the answer's relative Kirchhoff current-balance error,
	// set by callers that know the load current (irdrop's Analyze path).
	Balance float64 `json:"balance,omitempty"`
	// CondEst estimates κ(M⁻¹A) — the condition number of the
	// preconditioned operator — from the Lanczos tridiagonal the CG α/β
	// define. 0 means no estimate (zero-iteration solve, degenerate
	// tridiagonal).
	CondEst float64 `json:"cond_est,omitempty"`
	// Residuals is the decimated relative-residual history: one sample
	// every ResidualStride iterations (approximately — the stride doubles
	// each time the ring fills, and already-retained samples keep their
	// original spacing).
	ResidualStride int       `json:"residual_stride,omitempty"`
	Residuals      []float64 `json:"residuals,omitempty"`
	// Alphas and Betas are the CG coefficients, capped at SolveCoeffCap
	// each; Truncated marks that the cap was hit.
	Alphas    []float64 `json:"alphas,omitempty"`
	Betas     []float64 `json:"betas,omitempty"`
	Truncated bool      `json:"coeffs_truncated,omitempty"`
}

// SolveRecorder captures one solve in flight. Obtain one from
// SolveBuffer.StartSolveRecord, hand it to the solver via
// CGOptions.Rec, and Commit it when the solve returns — on every path;
// the obscontract analyzer enforces the pairing. All methods are
// nil-safe, so an absent recorder costs the solver two nil checks per
// iteration and nothing else.
//
// A recorder is single-solve, single-goroutine state: it allocates its
// buffers once at Start (one backing array sliced into views) and never
// again until Commit snapshots them.
type SolveRecorder struct {
	buf  *SolveBuffer
	rec  SolveRecord
	done bool

	residuals []float64 // decimated history ring (view of backing)
	alphas    []float64 // α per iteration (view)
	betas     []float64 // β per iteration (view)
	stride    int       // current residual sampling stride
	sinceKeep int       // iterations since the last retained sample
	bestRes   float64   // best relative residual seen
	sinceBest int       // iterations since bestRes improved
}

// StartSolveRecord begins recording one solve. A nil buffer returns a
// nil recorder, on which every method (Commit included) is a no-op —
// the disabled path needs no conditionals.
func (b *SolveBuffer) StartSolveRecord() *SolveRecorder {
	if b == nil {
		return nil
	}
	r := &SolveRecorder{buf: b, stride: 1, bestRes: math.Inf(1)}
	backing := make([]float64, SolveResidualCap+2*SolveCoeffCap)
	r.residuals = backing[0:0:SolveResidualCap]
	r.alphas = backing[SolveResidualCap : SolveResidualCap : SolveResidualCap+SolveCoeffCap]
	r.betas = backing[SolveResidualCap+SolveCoeffCap : SolveResidualCap+SolveCoeffCap]
	return r
}

// Begin stamps the system dimension at the start of the solve. No-op on
// nil.
func (r *SolveRecorder) Begin(n int) {
	if r == nil {
		return
	}
	r.rec.N = n
}

// SetSolver stamps the method and preconditioner identity. No-op on nil.
func (r *SolveRecorder) SetSolver(method, precond string) {
	if r == nil {
		return
	}
	r.rec.Method = method
	r.rec.Precond = precond
}

// SetTrace links the record to a request trace. No-op on nil.
func (r *SolveRecorder) SetTrace(id string) {
	if r == nil {
		return
	}
	r.rec.TraceID = id
}

// SetBalance stamps the solution's relative Kirchhoff current-balance
// error. No-op on nil.
func (r *SolveRecorder) SetBalance(b float64) {
	if r == nil {
		return
	}
	r.rec.Balance = b
}

// RecordIter captures one CG iteration: the step length α and the
// relative residual after the update. Allocation-free. No-op on nil.
func (r *SolveRecorder) RecordIter(alpha, relres float64) {
	if r == nil {
		return
	}
	if len(r.alphas) < cap(r.alphas) {
		r.alphas = append(r.alphas, alpha)
	} else {
		r.rec.Truncated = true
	}
	if relres < r.bestRes {
		r.bestRes = relres
		r.sinceBest = 0
	} else {
		r.sinceBest++
	}
	r.sinceKeep++
	if r.sinceKeep < r.stride {
		return
	}
	r.sinceKeep = 0
	if len(r.residuals) == cap(r.residuals) {
		// Ring full: keep every other retained sample in place and
		// double the stride. Early samples end up sparser than the
		// current stride — fine for a trajectory plot, and it keeps the
		// whole history inside one fixed allocation.
		half := len(r.residuals) / 2
		for i := 0; i < half; i++ {
			r.residuals[i] = r.residuals[2*i]
		}
		r.residuals = r.residuals[:half]
		r.stride *= 2
	}
	r.residuals = append(r.residuals, relres)
}

// RecordBeta captures the β of an iteration that continued past its
// convergence check. Allocation-free. No-op on nil.
func (r *SolveRecorder) RecordBeta(beta float64) {
	if r == nil {
		return
	}
	if len(r.betas) < cap(r.betas) {
		r.betas = append(r.betas, beta)
	} else {
		r.rec.Truncated = true
	}
}

// Finish stamps the solve's final stats and classifies the termination:
// a maxiter exit whose best residual is at least stagnationWindow
// iterations old becomes stagnated. No-op on nil.
func (r *SolveRecorder) Finish(iterations int, residual float64, converged bool, termination string) {
	if r == nil {
		return
	}
	r.rec.Iterations = iterations
	r.rec.Residual = residual
	r.rec.Converged = converged
	if termination == TermMaxIter && r.sinceBest >= stagnationWindow {
		termination = TermStagnated
	}
	r.rec.Termination = termination
}

// Commit finalizes the record — snapshots the captured buffers, computes
// the condition estimate, assigns the record ID — adds it to the buffer,
// and returns it. Only the first Commit takes effect; later calls return
// the committed record without re-adding it. Returns the zero record on
// nil.
func (r *SolveRecorder) Commit() SolveRecord {
	if r == nil {
		return SolveRecord{}
	}
	if r.done {
		return r.rec
	}
	r.done = true
	rec := r.rec
	rec.CondEst = CondFromLanczos(r.alphas, r.betas)
	rec.ResidualStride = r.stride
	nr, na := len(r.residuals), len(r.alphas)
	// One combined allocation for all three exported slices; the views
	// are capacity-capped so appends by a consumer cannot alias.
	snap := make([]float64, 0, nr+na+len(r.betas))
	snap = append(snap, r.residuals...)
	snap = append(snap, r.alphas...)
	snap = append(snap, r.betas...)
	rec.Residuals = snap[:nr:nr]
	rec.Alphas = snap[nr : nr+na : nr+na]
	rec.Betas = snap[nr+na:]
	if nr == 0 {
		rec.ResidualStride = 0
	}
	rec.ID = "s-" + strconv.FormatInt(r.buf.seq.Add(1), 10)
	r.rec = rec
	r.buf.Add(rec)
	return rec
}

// CondFromLanczos estimates the condition number of the (preconditioned)
// operator a CG solve iterated on, for free, from its α/β coefficients:
// they define the Lanczos tridiagonal T with
//
//	d₁ = 1/α₁,  dₖ = 1/αₖ + βₖ₋₁/αₖ₋₁,  eₖ = √βₖ/αₖ,
//
// whose extreme eigenvalues (computed here by Sturm-sequence bisection
// inside the Gershgorin bounds) are the Ritz approximations of the
// operator's spectrum edges; κ ≈ λmax/λmin. Ritz extremes converge from
// the inside, so the estimate approaches the true κ from below as the
// solve runs — accurate to a few percent once CG has converged, and an
// underestimate when the solve was cut short. Returns 0 (no estimate)
// for fewer than one iteration or a degenerate tridiagonal.
//
// The arithmetic is a fixed sequential recurrence over deterministic
// inputs, so the estimate is identical at any worker count.
func CondFromLanczos(alphas, betas []float64) float64 {
	m := len(alphas)
	if m > len(betas)+1 {
		m = len(betas) + 1 // need β₁..βₘ₋₁ for an m×m T
	}
	if m == 0 || !(alphas[0] > 0) {
		return 0
	}
	if m == 1 {
		return 1 // T is 1×1: a single Ritz value, κ estimate is trivial
	}
	buf := make([]float64, 2*m-1)
	d, e := buf[:m], buf[m:]
	d[0] = 1 / alphas[0]
	for k := 1; k < m; k++ {
		if !(alphas[k] > 0) || !(betas[k-1] >= 0) {
			return 0
		}
		d[k] = 1/alphas[k] + betas[k-1]/alphas[k-1]
		e[k-1] = math.Sqrt(betas[k-1]) / alphas[k-1]
	}
	// Gershgorin interval containing every eigenvalue of T.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < m; i++ {
		radius := 0.0
		if i > 0 {
			radius += math.Abs(e[i-1])
		}
		if i < m-1 {
			radius += math.Abs(e[i])
		}
		if d[i]-radius < lo {
			lo = d[i] - radius
		}
		if d[i]+radius > hi {
			hi = d[i] + radius
		}
	}
	if !(hi > lo) {
		return 1 // all eigenvalues coincide
	}
	lmin := sturmBisect(d, e, lo, hi, 1)
	lmax := sturmBisect(d, e, lo, hi, m)
	if !(lmin > 0) || !(lmax > 0) || lmax < lmin {
		return 0
	}
	return lmax / lmin
}

// sturmBisect finds the k-th smallest eigenvalue of the symmetric
// tridiagonal (d, e) by bisection on the Sturm negcount: the boundary
// between negcount < k and negcount >= k.
func sturmBisect(d, e []float64, lo, hi float64, k int) float64 {
	for i := 0; i < 128 && hi-lo > 1e-14*math.Max(math.Abs(lo), math.Abs(hi)); i++ {
		mid := lo + (hi-lo)/2
		if sturmNegcount(d, e, mid) >= k {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo + (hi-lo)/2
}

// sturmNegcount returns the number of eigenvalues of the symmetric
// tridiagonal (d, e) strictly below x, via the LDLᵀ pivot sign count.
func sturmNegcount(d, e []float64, x float64) int {
	const pivmin = 1e-300
	count := 0
	q := d[0] - x
	if q < 0 {
		count++
	}
	for i := 1; i < len(d); i++ {
		if math.Abs(q) < pivmin {
			q = -pivmin
		}
		q = d[i] - x - e[i-1]*e[i-1]/q
		if q < 0 {
			count++
		}
	}
	return count
}

// SolveBuffer retains finished solve records for post-hoc inspection
// (/debug/solves) in a Retain ranked by iterations — the N most recent
// plus the N worst — and assigns the record IDs. Safe for concurrent
// use; nil disables retention (and recording — see StartSolveRecord).
type SolveBuffer struct {
	// IterHist, CondHist and BalanceHist, when non-nil, receive every
	// committed record's iteration count, condition estimate and
	// Kirchhoff balance (the latter two only when the record carries
	// one). The serving layer points these at deterministic registry
	// histograms so the convergence and balance distributions reach
	// /metrics and the Prometheus exposition. Set before first use.
	IterHist    *Histogram
	CondHist    *Histogram
	BalanceHist *Histogram

	ret *Retain[SolveRecord]
	seq atomic.Int64
}

// NewSolveBuffer builds a buffer retaining n recent and n
// worst-by-iterations records (n <= 0 selects DefaultRetainCap).
func NewSolveBuffer(n int) *SolveBuffer {
	return &SolveBuffer{ret: NewRetain(n, func(r SolveRecord) float64 { return float64(r.Iterations) })}
}

// Add records one finished solve. Commit calls this; use it directly
// only when constructing records by hand (tests). No-op on nil.
func (b *SolveBuffer) Add(rec SolveRecord) {
	if b == nil {
		return
	}
	b.IterHist.Observe(float64(rec.Iterations))
	if rec.CondEst > 0 {
		b.CondHist.Observe(rec.CondEst)
	}
	if rec.Balance > 0 {
		b.BalanceHist.Observe(rec.Balance)
	}
	b.ret.Add(rec)
}

// Snapshot returns the retained records: recent newest-first, worst in
// descending iteration count, and the total number ever added. Safe on
// nil.
func (b *SolveBuffer) Snapshot() (recent, worst []SolveRecord, added int64) {
	if b == nil {
		return nil, nil, 0
	}
	return b.ret.Snapshot()
}

// Find returns the retained record with the given solve ID — or, when no
// solve ID matches, the most recent record linked to the given trace ID,
// so a trace from /debug/requests leads straight to its solve. Safe on
// nil.
func (b *SolveBuffer) Find(id string) (SolveRecord, bool) {
	if b == nil {
		return SolveRecord{}, false
	}
	if rec, ok := b.ret.Find(func(r SolveRecord) bool { return r.ID == id }); ok {
		return rec, true
	}
	return b.ret.Find(func(r SolveRecord) bool { return r.TraceID == id })
}
