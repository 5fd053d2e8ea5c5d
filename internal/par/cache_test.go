package par

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
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

// TestCacheDoAllOverlappingKeySets hammers DoAll from many goroutines
// whose key sets overlap (one of them lists a key twice), all released
// at once: every key must be led by exactly one fn call and counted as
// one miss, every other listing of it as one hit, and every caller must
// get every key's value in its own key order.
func TestCacheDoAllOverlappingKeySets(t *testing.T) {
	const callers, pool, width = 24, 10, 4
	reg := obs.NewRegistry()
	c := NewCache[string](0)
	c.Hits, c.Misses = reg.Counter("hits"), reg.Counter("misses")
	var mu sync.Mutex
	led := map[string]int{}
	start := make(chan struct{})
	var wg sync.WaitGroup
	total := 0
	for g := 0; g < callers; g++ {
		keys := make([]string, width)
		for k := range keys {
			keys[k] = fmt.Sprint("k", (g*3+k*(1+g%2))%pool)
		}
		if g == 0 {
			keys = append(keys, keys[0])
		}
		total += len(keys)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			vals, err := c.DoAll(context.Background(), keys, nil, func(lead []int) ([]string, error) {
				out := make([]string, len(lead))
				mu.Lock()
				defer mu.Unlock()
				for n, i := range lead {
					if n > 0 && lead[n-1] >= i {
						t.Errorf("lead %v not ascending", lead)
					}
					led[keys[i]]++
					out[n] = "v" + keys[i]
				}
				return out, nil
			})
			if err != nil {
				t.Errorf("DoAll(%v): %v", keys, err)
				return
			}
			for i, k := range keys {
				if vals[i] != "v"+k {
					t.Errorf("DoAll(%v)[%d] = %q, want %q", keys, i, vals[i], "v"+k)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if len(led) != pool {
		t.Fatalf("%d keys led, want all %d", len(led), pool)
	}
	for k, n := range led {
		if n != 1 {
			t.Errorf("key %s led by %d fn calls, want 1", k, n)
		}
	}
	if h, m := c.Hits.Value(), c.Misses.Value(); m != pool || h != int64(total-pool) {
		t.Errorf("hits/misses = %d/%d, want %d/%d (one miss per key, a hit per other listing)", h, m, total-pool, pool)
	}
}

// TestCacheDoAllLeadsOnlyMissingKeys: a kept key is a hit and is not
// passed to fn, a failed group keeps none of its keys, and a later call
// leads them again.
func TestCacheDoAllLeadsOnlyMissingKeys(t *testing.T) {
	var c Cache[int]
	ctx := context.Background()
	var leads [][]int
	fn := func(fail bool) func([]int) ([]int, error) {
		return func(lead []int) ([]int, error) {
			leads = append(leads, slices.Clone(lead))
			if fail {
				return nil, errors.New("group failed")
			}
			out := make([]int, len(lead))
			for n, i := range lead {
				out[n] = 10 * i
			}
			return out, nil
		}
	}
	if _, err := c.DoAll(ctx, []string{"a"}, nil, fn(false)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DoAll(ctx, []string{"b", "a", "c"}, nil, fn(true)); err == nil || err.Error() != "group failed" {
		t.Fatalf("failed group err = %v", err)
	}
	vals, err := c.DoAll(ctx, []string{"c", "a", "b"}, nil, fn(false))
	if err != nil || !slices.Equal(vals, []int{0, 0, 20}) {
		t.Fatalf("after the failure = %v, %v; want [0 0 20] (c and b re-run, a kept from its first run)", vals, err)
	}
	if want := [][]int{{0}, {0, 2}, {0, 2}}; !reflect.DeepEqual(leads, want) {
		t.Fatalf("fn leads = %v, want %v", leads, want)
	}
	if _, err := c.DoAll(ctx, []string{"x"}, nil, func([]int) ([]int, error) { return nil, nil }); err == nil {
		t.Fatal("fn returning no value for its key must fail")
	}
}

// TestCacheDoAllPanicReachesEveryCaller: a group's panic is the
// *PanicError of its leader and of every waiter on any of its keys,
// including a waiter that led other keys of its own; nothing of the
// group is kept, while the waiter's own keys are.
func TestCacheDoAllPanicReachesEveryCaller(t *testing.T) {
	var c Cache[int]
	ctx := context.Background()
	var joined sync.WaitGroup
	joined.Add(2)
	started := make(chan struct{})
	errs := make(chan error, 3)
	go func() {
		_, err := c.DoAll(ctx, []string{"a", "b"}, nil, func([]int) ([]int, error) {
			close(started)
			joined.Wait()
			panic("boom")
		})
		errs <- err
	}()
	<-started
	go func() {
		_, err := c.Do(ctx, "a", joined.Done, func() (int, error) { return 0, errors.New("waiter ran a") })
		errs <- err
	}()
	go func() {
		_, err := c.DoAll(ctx, []string{"c", "b"}, joined.Done, func(lead []int) ([]int, error) {
			if !slices.Equal(lead, []int{0}) {
				t.Errorf("waiter led %v, want only c", lead)
			}
			return []int{7}, nil
		})
		errs <- err
	}()
	for i := 0; i < 3; i++ {
		wantPanicError(t, <-errs, "boom")
	}
	vals, err := c.DoAll(ctx, []string{"a", "b", "c"}, nil, func(lead []int) ([]int, error) {
		if !slices.Equal(lead, []int{0, 1}) {
			t.Errorf("after the panic led %v, want a and b again", lead)
		}
		return []int{1, 2}, nil
	})
	if err != nil || !slices.Equal(vals, []int{1, 2, 7}) {
		t.Fatalf("after the panic = %v, %v", vals, err)
	}
}

// TestCacheDoAllWaiterOwnContext: a caller that led some keys and waits
// on another ends with its own ctx.Err() when its context ends; its own
// keys and the flight it waited on are kept.
func TestCacheDoAllWaiterOwnContext(t *testing.T) {
	var c Cache[int]
	release := make(chan struct{})
	started := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := c.DoAll(context.Background(), []string{"a", "b"}, nil, func([]int) ([]int, error) {
			close(started)
			<-release
			return []int{1, 2}, nil
		})
		leader <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	_, err := c.DoAll(ctx, []string{"b", "c"}, nil, func(lead []int) ([]int, error) {
		cancel()
		return []int{3}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want its own context.Canceled", err)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("leader err = %v", err)
	}
	vals, err := c.DoAll(context.Background(), []string{"a", "b", "c"}, nil, func([]int) ([]int, error) {
		return nil, errors.New("re-ran a kept key")
	})
	if err != nil || !slices.Equal(vals, []int{1, 2, 3}) {
		t.Fatalf("after the flights = %v, %v; every value must be kept", vals, err)
	}
}
