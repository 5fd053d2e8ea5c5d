package irdrop

import (
	"math"
	"sync"
	"testing"

	"pdn3d/internal/powermap"
)

// Hammer the analyzer from many goroutines: every call must run exactly
// one solve of its own, all callers of one (state, io) point must get
// bit-identical IR vectors, and the whole thing must be clean under -race.
func TestAnalyzeConcurrentExactlyOnce(t *testing.T) {
	a, err := New(coarseSpec(t), powermap.StackedDDR3Power(), nil)
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		counts []int
		io     float64
	}
	points := []point{
		{[]int{1, 0, 0, 0}, 1.0},
		{[]int{0, 2, 0, 0}, 1.0},
		{[]int{0, 0, 0, 2}, 0.5},
		{[]int{1, 1, 1, 1}, 1.0},
		{[]int{0, 0, 0, 0}, 0.0},
	}
	const goroutinesPerPoint = 16
	results := make([][]*Result, len(points))
	for i := range results {
		results[i] = make([]*Result, goroutinesPerPoint)
	}
	var wg sync.WaitGroup
	for pi, p := range points {
		for g := 0; g < goroutinesPerPoint; g++ {
			wg.Add(1)
			go func(pi, g int, p point) {
				defer wg.Done()
				r, err := a.AnalyzeCounts(p.counts, p.io)
				if err != nil {
					t.Error(err)
					return
				}
				results[pi][g] = r
			}(pi, g, p)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for pi := range results {
		want := results[pi][0].IR
		for g := 1; g < goroutinesPerPoint; g++ {
			got := results[pi][g].IR
			if len(got) != len(want) {
				t.Fatalf("point %d: goroutine %d got %d nodes, want %d", pi, g, len(got), len(want))
			}
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Errorf("point %d: goroutine %d node %d = %g, want %g bit for bit", pi, g, k, got[k], want[k])
					break
				}
			}
		}
	}
	if got, want := a.Solves(), len(points)*goroutinesPerPoint; got != want {
		t.Errorf("analyzer ran %d solves for %d calls; want exactly one each", got, want)
	}
}
