package par

import (
	"container/list"
	"context"
	"sync"

	"pdn3d/internal/obs"
)

// Cache is a singleflight cache: concurrent Do calls for one key run fn
// once and share its outcome, and each successful value is kept in a
// least-recently-used set of at most capacity keys (capacity <= 0 keeps
// every value). A failed call keeps nothing, so the next Do runs fn
// again. The zero value is an unbounded cache ready to use.
//
// Do follows three rules, so that no caller or input can wedge a key or
// fail another caller's request:
//
//   - A waiter waits on its own context: when it ends, that waiter gets
//     its own ctx.Err() while the flight runs on and keeps its value.
//   - A failure whose leader's context had ended is not shared: each
//     waiter then runs fn itself (or joins the next flight).
//   - A panic in fn is recovered into a *PanicError, which the leader and
//     every waiter get; nothing is kept.
//
// Hits/Misses, when set, count calls that did not run fn (a kept value or
// another caller's flight) versus fn runs. For error-free workloads on an
// unbounded cache both are functions of the call multiset alone,
// independent of worker count; failures re-run fn, so error paths may add
// misses.
type Cache[V any] struct {
	Hits, Misses *obs.Counter

	mu       sync.Mutex
	capacity int
	kept     map[string]*list.Element // values are *entry[V]
	order    list.List                // front = most recently used
	inflight map[string]*flight[V]
}

type entry[V any] struct {
	key string
	val V
}

type flight[V any] struct {
	done  chan struct{} // closed once val, err and rerun are final
	val   V
	err   error
	rerun bool // the leader failed after its context ended
}

// NewCache returns a cache keeping at most capacity values
// (capacity <= 0 keeps every value).
func NewCache[V any](capacity int) *Cache[V] {
	return &Cache[V]{capacity: capacity}
}

// Do returns the value kept for key or, on a miss, the outcome of one fn
// run shared by every concurrent caller for key. fn runs on the calling
// goroutine; it should honor the same ctx the caller passes to Do, which
// decides whether a failure is shared (see the Cache rules). miss, when
// non-nil, is called once on the calling goroutine when key has no kept
// value, before Do waits for or runs fn — the hook a tracing caller uses
// to end its lookup span.
func (c *Cache[V]) Do(ctx context.Context, key string, miss func(), fn func() (V, error)) (V, error) {
	for first := true; ; first = false {
		c.mu.Lock()
		if e, ok := c.kept[key]; ok {
			c.order.MoveToFront(e)
			c.mu.Unlock()
			c.Hits.Add(1)
			return e.Value.(*entry[V]).val, nil
		}
		f, wait := c.inflight[key]
		if !wait {
			f = &flight[V]{done: make(chan struct{})}
			if c.inflight == nil {
				c.inflight = map[string]*flight[V]{}
			}
			c.inflight[key] = f
		}
		c.mu.Unlock()
		if first && miss != nil {
			miss()
		}
		if !wait {
			c.Misses.Add(1)
			c.run(ctx, key, f, fn)
			return f.val, f.err
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			c.Hits.Add(1)
			var zero V
			return zero, ctx.Err()
		}
		if !f.rerun {
			c.Hits.Add(1)
			return f.val, f.err
		}
	}
}

// run executes fn as the leader of flight f, keeps a successful value,
// and releases the waiters, also when fn panics or exits the goroutine.
func (c *Cache[V]) run(ctx context.Context, key string, f *flight[V], fn func() (V, error)) {
	returned := false
	defer func() {
		if !returned {
			f.err = asPanicError(recover())
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if f.err == nil {
			c.keep(key, f.val)
		}
		f.rerun = returned && f.err != nil && ctx.Err() != nil
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn()
	returned = true
}

// keep stores v as key's most recent value, evicting the least recently
// used value beyond capacity. The caller holds c.mu.
func (c *Cache[V]) keep(key string, v V) {
	if c.kept == nil {
		c.kept = map[string]*list.Element{}
	}
	c.kept[key] = c.order.PushFront(&entry[V]{key: key, val: v})
	if c.capacity > 0 && c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.kept, oldest.Value.(*entry[V]).key)
	}
}
