package par

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pdn3d/internal/obs"
)

// TestCacheExactlyOncePerKey holds the leader's fn until all 64 callers
// have missed, so every one of them is on the same flight: fn must run
// once, and 63 callers count as hits.
func TestCacheExactlyOncePerKey(t *testing.T) {
	const callers = 64
	reg := obs.NewRegistry()
	c := NewCache[int](0)
	c.Hits, c.Misses = reg.Counter("hits"), reg.Counter("misses")
	var joined sync.WaitGroup
	joined.Add(callers)
	var runs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do(context.Background(), "k", joined.Done, func() (int, error) {
				joined.Wait()
				runs.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Errorf("fn ran %d times for %d concurrent callers, want 1", n, callers)
	}
	if h, m := c.Hits.Value(), c.Misses.Value(); h != callers-1 || m != 1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", h, m, callers-1)
	}
	v, err := c.Do(context.Background(), "k", func() { t.Error("kept key missed") }, func() (int, error) {
		return 0, errors.New("fn re-ran for a kept key")
	})
	if err != nil || v != 42 {
		t.Fatalf("kept Do = %d, %v", v, err)
	}
}

func TestCacheDoesNotKeepErrors(t *testing.T) {
	var c Cache[int]
	ctx := context.Background()
	n := 0
	if _, err := c.Do(ctx, "k", nil, func() (int, error) { n++; return 0, errors.New("x") }); err == nil {
		t.Fatal("want error")
	}
	v, err := c.Do(ctx, "k", nil, func() (int, error) { n++; return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry: %d, %v", v, err)
	}
	if v, _ := c.Do(ctx, "k", nil, func() (int, error) { n++; return 8, nil }); v != 7 {
		t.Fatalf("kept value = %d, want 7", v)
	}
	if n != 2 {
		t.Fatalf("fn ran %d times, want 2 (error not kept, success kept)", n)
	}
}

// runs counts fn runs per key through one cache, so a test can tell a
// kept value (no run) from an evicted one (a second run).
type runs struct {
	c *Cache[string]
	n map[string]int
}

func (r *runs) do(key string) {
	r.c.Do(context.Background(), key, nil, func() (string, error) {
		r.n[key]++
		return key, nil
	})
}

func TestCacheLRUBoundAndOrder(t *testing.T) {
	r := &runs{c: NewCache[string](2), n: map[string]int{}}
	r.do("a")
	r.do("b")
	r.do("a") // a is now the most recently used
	r.do("c") // evicts b, the least recently used
	r.do("a")
	r.do("c")
	if r.n["a"] != 1 || r.n["c"] != 1 {
		t.Fatalf("runs = %v: a and c must stay kept", r.n)
	}
	r.do("b")
	if r.n["b"] != 2 {
		t.Fatalf("runs = %v: b must have been evicted", r.n)
	}
	if got := r.c.order.Len(); got != 2 {
		t.Fatalf("cache keeps %d values, want the bound 2", got)
	}

	for _, capacity := range []int{0, -1} {
		r := &runs{c: NewCache[string](capacity), n: map[string]int{}}
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 100; i++ {
				r.do(fmt.Sprint(i))
			}
		}
		for k, n := range r.n {
			if n != 1 {
				t.Fatalf("capacity %d: key %s ran %d times, want every value kept", capacity, k, n)
			}
		}
	}
}

// TestCacheWaiterOwnContext: a waiter whose context ends gets its own
// error at once; the flight runs on and its value is kept.
func TestCacheWaiterOwnContext(t *testing.T) {
	var c Cache[int]
	release := make(chan struct{})
	started := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), "k", nil, func() (int, error) {
			close(started)
			<-release
			return 5, nil
		})
		leader <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	_, err := c.Do(ctx, "k", cancel, func() (int, error) {
		t.Error("waiter ran fn while the flight was live")
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want its own context.Canceled", err)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("leader err = %v", err)
	}
	v, err := c.Do(context.Background(), "k", nil, func() (int, error) { return 0, errors.New("re-ran") })
	if err != nil || v != 5 {
		t.Fatalf("after the flight: %d, %v — its value must be kept", v, err)
	}
}

// TestCacheCancelledLeaderDoesNotFailFollower: the leader's context ends
// mid-fn and its fn fails with that error; a live follower must run fn
// itself and get the value instead of inheriting the cancellation.
func TestCacheCancelledLeaderDoesNotFailFollower(t *testing.T) {
	var c Cache[int]
	var runs atomic.Int64
	followerJoined := make(chan struct{})
	lctx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		_, err := c.Do(lctx, "k", nil, func() (int, error) {
			runs.Add(1)
			close(started)
			<-followerJoined
			cancel()
			return 0, lctx.Err()
		})
		leader <- err
	}()
	<-started
	v, err := c.Do(context.Background(), "k", func() { close(followerJoined) }, func() (int, error) {
		runs.Add(1)
		return 9, nil
	})
	if err != nil || v != 9 {
		t.Fatalf("follower = %d, %v, want the value", v, err)
	}
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want its own cancellation", err)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("fn ran %d times, want 2 (leader, then the follower)", n)
	}
}

// TestCachePanicReleasesWaiters: a panicking fn gives the leader and every
// waiter a *PanicError, keeps nothing, and the next Do runs fn again.
func TestCachePanicReleasesWaiters(t *testing.T) {
	const waiters = 8
	var c Cache[int]
	var joined sync.WaitGroup
	joined.Add(waiters + 1)
	errs := make(chan error, waiters+1)
	var wg sync.WaitGroup
	for i := 0; i <= waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Do(context.Background(), "k", joined.Done, func() (int, error) {
				joined.Wait()
				panic("boom")
			})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "boom" || len(pe.Stack) == 0 {
			t.Fatalf("err = %v, want *PanicError carrying the panic value and stack", err)
		}
	}
	v, err := c.Do(context.Background(), "k", nil, func() (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("Do after the panic = %d, %v, want fn to run again", v, err)
	}
}

func TestCacheReset(t *testing.T) {
	var c Cache[int]
	ctx := context.Background()
	n := 0
	fn := func() (int, error) { n++; return n, nil }
	c.Do(ctx, "a", nil, fn)
	c.Do(ctx, "b", nil, fn)
	c.Reset()
	if v, _ := c.Do(ctx, "a", nil, fn); v != 3 {
		t.Fatalf("Do after Reset = %d, want 3 (fn re-run)", v)
	}
	if v, _ := c.Do(ctx, "a", nil, fn); v != 3 {
		t.Fatalf("kept Do = %d, want 3", v)
	}
}
