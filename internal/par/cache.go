package par

import (
	"container/list"
	"context"
	"fmt"
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
// Hits/Misses, when set, count keys, one per key a call asks for: keys
// answered without running fn (a kept value or another caller's flight)
// versus keys whose fn run the call led. For error-free workloads on an
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
	key   string
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
// to end its lookup span. Do is DoAll's one-key case.
func (c *Cache[V]) Do(ctx context.Context, key string, miss func(), fn func() (V, error)) (V, error) {
	vals, err := c.DoAll(ctx, []string{key}, miss, func([]int) ([]V, error) {
		v, err := fn()
		return []V{v}, err
	})
	if err != nil {
		var zero V
		return zero, err
	}
	return vals[0], nil
}

// DoAll is Do for several keys at once: it returns the value of every
// key, in key order, or the first failing key's error. Each key follows
// Do's rules and counts as one hit or one miss: a kept key is a hit, a
// key in flight for another caller (or listed twice) is waited on, and
// the keys this call leads run as one group: one fn(lead) call, where
// lead holds their positions in keys, ascending, and fn returns one
// value per position, in lead's order. A failure of that call is the
// error of every key it leads; a panic in it is every such key's
// *PanicError, for this caller and every waiter; nothing is kept. A key
// whose flight failed after its leader's context ended is run again, in
// a later group, while ctx lives. fn runs before any wait, so callers
// whose key sets overlap never wait on each other in a cycle. miss, when
// non-nil, is called once, before the first wait or fn run, when any key
// has no kept value.
func (c *Cache[V]) DoAll(ctx context.Context, keys []string, miss func(), fn func(lead []int) ([]V, error)) ([]V, error) {
	vals := make([]V, len(keys))
	errs := make([]error, len(keys))
	todo := make([]int, len(keys))
	for i := range todo {
		todo[i] = i
	}
	for first := true; len(todo) > 0; first = false {
		var lead, waiting []int
		var led, waits []*flight[V]
		hits := 0
		c.mu.Lock()
		for _, i := range todo {
			if e, ok := c.kept[keys[i]]; ok {
				c.order.MoveToFront(e)
				vals[i] = e.Value.(*entry[V]).val
				hits++
			} else if f, ok := c.inflight[keys[i]]; ok {
				waiting, waits = append(waiting, i), append(waits, f)
			} else {
				f := &flight[V]{key: keys[i], done: make(chan struct{})}
				if c.inflight == nil {
					c.inflight = map[string]*flight[V]{}
				}
				c.inflight[f.key] = f
				lead, led = append(lead, i), append(led, f)
			}
		}
		c.mu.Unlock()
		c.Hits.Add(int64(hits))
		if first && miss != nil && len(lead)+len(waiting) > 0 {
			miss()
		}
		if len(lead) > 0 {
			c.Misses.Add(int64(len(lead)))
			c.run(ctx, led, func() ([]V, error) { return fn(lead) })
			for k, i := range lead {
				vals[i], errs[i] = led[k].val, led[k].err
			}
		}
		todo = todo[:0]
		for k, i := range waiting {
			select {
			case <-waits[k].done:
			case <-ctx.Done():
			}
			switch f := waits[k]; {
			case ctx.Err() != nil:
				errs[i] = ctx.Err()
			case f.rerun:
				todo = append(todo, i)
				continue
			default:
				vals[i], errs[i] = f.val, f.err
			}
			c.Hits.Add(1)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// run executes fn as the leader of the flights led, keeps their values
// when fn succeeds, and releases the waiters, also when fn panics or
// exits the goroutine.
func (c *Cache[V]) run(ctx context.Context, led []*flight[V], fn func() ([]V, error)) {
	returned := false
	var err error
	defer func() {
		if !returned {
			err = asPanicError(recover())
		}
		rerun := returned && err != nil && ctx.Err() != nil
		c.mu.Lock()
		for _, f := range led {
			delete(c.inflight, f.key)
			if err == nil {
				c.keep(f.key, f.val)
			}
			f.err, f.rerun = err, rerun
		}
		c.mu.Unlock()
		for _, f := range led {
			close(f.done)
		}
	}()
	vals, err := fn()
	if err == nil && len(vals) != len(led) {
		err = fmt.Errorf("par: DoAll fn returned %d values for %d keys", len(vals), len(led))
	}
	if err == nil {
		for k, f := range led {
			f.val = vals[k]
		}
	}
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
