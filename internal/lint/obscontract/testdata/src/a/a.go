// Package a exercises obscontract: metric naming, kind stability,
// counter monotonicity, and span End discipline.
package a

import (
	"errors"

	"internal/obs"
)

var errFail = errors.New("fail")

// Register exercises the name and kind rules; package b imports it so
// the MetricsFact crosses the package boundary in dependency order.
func Register(r *obs.Registry) {
	r.Counter("serve.hits")
	r.Counter("serve.hits")  // get-or-create with the same kind: allowed
	r.Counter("Serve Hits!") // want `metric name "Serve Hits!" does not match`
	r.Gauge("serve.hits")    // want `metric "serve.hits" already registered as a counter in this package`
	r.Counter("jobs.done").Add(1)
	r.Counter("jobs.done").Add(-1) // want `Counter\.Add\(-1\): counters are monotonic`
}

// leak forgets the End on the error path.
func leak(t *obs.Trace, fail bool) error {
	sp := t.Span("solve") // want `span sp is not ended on every return path`
	if fail {
		return errFail
	}
	sp.End()
	return nil
}

// deferred is the idiomatic clean shape.
func deferred(t *obs.Trace, fail bool) error {
	sp := t.Span("solve")
	defer sp.End()
	if fail {
		return errFail
	}
	return nil
}

// handoff transfers the End obligation to the callee.
func handoff(t *obs.Trace) {
	sp := t.Span("solve")
	consume(sp)
}

func consume(s *obs.TraceSpan) { s.End() }

// runTraceLeak opens a span on a registry's run trace, the shape exp and
// opt use, and forgets the End on the error path.
func runTraceLeak(r *obs.Registry, fail bool) error {
	sp := r.Trace().Span("exp/table1") // want `span sp is not ended on every return path`
	if fail {
		return errFail
	}
	sp.End()
	return nil
}

// child tracks spans from TraceSpan.Child too.
func child(t *obs.Trace) {
	sp := t.Span("solve")
	defer sp.End()
	c := sp.Child("inner")
	c.Annotate("k", "v")
	c.End()
}

// childLeak leaves the child open on one path.
func childLeak(t *obs.Trace, fail bool) error {
	sp := t.Span("solve")
	defer sp.End()
	c := sp.Child("inner") // want `span c is not ended on every return path`
	if fail {
		return errFail
	}
	c.End()
	return nil
}

// recorderLeak forgets the Commit on the error path — the record (and
// the failed solve it describes) would silently vanish from /debug/solves.
func recorderLeak(b *obs.SolveBuffer, fail bool) error {
	rec := b.StartSolveRecord() // want `solve recorder rec is not committed on every return path`
	if fail {
		return errFail
	}
	rec.Commit()
	return nil
}

// recorderCommitted commits on both paths; RecordIter neither closes
// nor escapes the recorder.
func recorderCommitted(b *obs.SolveBuffer, fail bool) error {
	rec := b.StartSolveRecord()
	rec.RecordIter(1, 0.5)
	rec.Commit()
	if fail {
		return errFail
	}
	return nil
}

// recorderDeferred is the idiomatic clean shape.
func recorderDeferred(b *obs.SolveBuffer, fail bool) error {
	rec := b.StartSolveRecord()
	defer rec.Commit()
	if fail {
		return errFail
	}
	return nil
}

// recorderHandoff transfers the Commit obligation to the callee.
func recorderHandoff(b *obs.SolveBuffer) {
	rec := b.StartSolveRecord()
	commitRec(rec)
}

func commitRec(r *obs.SolveRecorder) { r.Commit() }

// waived shows the escape hatch covering a multi-line statement: the
// directive suppresses the finding on the argument line below it.
func waived(r *obs.Registry) {
	//pdnlint:ignore obscontract legacy dashboard name kept for continuity
	r.Counter(
		"Legacy Name",
	)
}
