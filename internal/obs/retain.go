package obs

import "sync"

// DefaultRetainCap bounds each Retain class when the size knob is unset.
const DefaultRetainCap = 64

// Retain keeps finished values for post-hoc inspection (/debug/requests,
// /debug/solves): a ring of the N most recent plus the N highest-ranked
// seen, each bounded, so a long-running server holds a fixed amount of
// data no matter how much traffic it serves. Safe for concurrent use;
// nil disables retention.
type Retain[T any] struct {
	n    int
	rank func(T) float64

	mu     sync.Mutex
	recent []retained[T] // ring; next is the oldest once full
	next   int
	top    []retained[T] // rank descending, len <= n
	added  int64
}

// retained is one kept value with its rank and its 1-based add order.
type retained[T any] struct {
	v    T
	rank float64
	seq  int64
}

// NewRetain builds a buffer keeping the n most recent values and the n
// highest by rank (n <= 0 selects DefaultRetainCap). Among equal ranks
// the earlier value stays ahead.
func NewRetain[T any](n int, rank func(T) float64) *Retain[T] {
	if n <= 0 {
		n = DefaultRetainCap
	}
	return &Retain[T]{n: n, rank: rank}
}

// Add records one value. No-op on nil.
func (b *Retain[T]) Add(v T) {
	if b == nil {
		return
	}
	e := retained[T]{v: v, rank: b.rank(v)}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.added++
	e.seq = b.added
	if len(b.recent) < b.n {
		b.recent = append(b.recent, e)
	} else {
		b.recent[b.next] = e
		b.next = (b.next + 1) % b.n
	}
	if len(b.top) < b.n {
		b.top = append(b.top, e)
	} else if e.rank > b.top[len(b.top)-1].rank {
		b.top[len(b.top)-1] = e
	} else {
		return
	}
	// Restore descending order: bubble the inserted tail entry up.
	for i := len(b.top) - 1; i > 0 && b.top[i].rank > b.top[i-1].rank; i-- {
		b.top[i], b.top[i-1] = b.top[i-1], b.top[i]
	}
}

// Snapshot returns the kept values: recent newest-first, top in
// descending rank, and the total number of values ever added. Safe on
// nil.
func (b *Retain[T]) Snapshot() (recent, top []T, added int64) {
	if b == nil {
		return nil, nil, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	recent = make([]T, len(b.recent))
	// The ring's next slot holds the oldest entry once full (and stays 0
	// while filling), so the newest entry sits just before it.
	for i := range recent {
		recent[i] = b.recent[(b.next-1-i+2*len(b.recent))%len(b.recent)].v
	}
	top = make([]T, len(b.top))
	for i, e := range b.top {
		top[i] = e.v
	}
	return recent, top, b.added
}

// Find returns the most recently added kept value for which match
// reports true; match runs on a copy, outside the lock. Safe on nil.
func (b *Retain[T]) Find(match func(T) bool) (T, bool) {
	var hit retained[T]
	if b == nil {
		return hit.v, false
	}
	b.mu.Lock()
	kept := append(append([]retained[T](nil), b.recent...), b.top...)
	b.mu.Unlock()
	for _, e := range kept {
		if e.seq > hit.seq && match(e.v) {
			hit = e
		}
	}
	return hit.v, hit.seq > 0
}
