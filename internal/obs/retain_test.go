package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestRetain drives the one retention algorithm through its inputs: the
// ring of the n newest, the n highest-ranked (an equal rank never
// displaces an earlier value), lookups across both lists, and the
// disabled and default-sized buffers.
func TestRetain(t *testing.T) {
	type item struct {
		id   string
		rank float64
	}
	byRank := func(it item) float64 { return it.rank }
	ids := func(items []item) string {
		var sb strings.Builder
		for _, it := range items {
			sb.WriteString(it.id)
		}
		return sb.String()
	}
	for _, c := range []struct {
		name        string
		n           int
		ranks       []float64 // item i is named 'a'+i
		recent, top string    // newest first; highest rank first
		kept, gone  string    // IDs Find must hit; IDs it must miss
	}{
		// "c" (rank 9) is in both lists; "a" (rank 5) only survives in
		// top; "b" (fast, aged out) is gone.
		{"recent_slowest_find", 3, []float64{5, 1, 9, 2, 7}, "edc", "cea", "ace", "b"},
		{"equal_ranks_keep_earliest", 2, []float64{4, 4, 4, 4}, "dc", "ab", "abcd", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := NewRetain(c.n, byRank)
			for i, r := range c.ranks {
				b.Add(item{id: string(rune('a' + i)), rank: r})
			}
			recent, top, added := b.Snapshot()
			if added != int64(len(c.ranks)) {
				t.Fatalf("added = %d, want %d", added, len(c.ranks))
			}
			if ids(recent) != c.recent || ids(top) != c.top {
				t.Fatalf("recent %q top %q, want %q %q", ids(recent), ids(top), c.recent, c.top)
			}
			for _, id := range c.kept {
				if it, ok := b.Find(func(it item) bool { return it.id == string(id) }); !ok || it.id != string(id) {
					t.Errorf("Find(%c) = %v, %v; want it retained", id, it, ok)
				}
			}
			for _, id := range c.gone {
				if _, ok := b.Find(func(it item) bool { return it.id == string(id) }); ok {
					t.Errorf("Find(%c) hit an aged-out value", id)
				}
			}
			// Among several matches Find returns the most recently added.
			newest := string(rune('a' + len(c.ranks) - 1))
			if it, ok := b.Find(func(item) bool { return true }); !ok || it.id != newest {
				t.Errorf("Find(any) = %v, %v; want the newest, %s", it, ok, newest)
			}
		})
	}
	t.Run("concurrent", func(t *testing.T) {
		const workers, per, n = 8, 100, 5
		b := NewRetain(n, byRank)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					b.Add(item{id: "x", rank: float64(w*per + i)})
					b.Find(func(it item) bool { return it.rank < 0 })
					b.Snapshot()
				}
			}(w)
		}
		wg.Wait()
		recent, top, added := b.Snapshot()
		if added != workers*per || len(recent) != n || len(top) != n {
			t.Fatalf("added %d, kept %d recent and %d top; want %d, %d, %d", added, len(recent), len(top), workers*per, n, n)
		}
		for i, it := range top {
			if want := float64(workers*per - 1 - i); it.rank != want {
				t.Fatalf("top[%d] rank %g, want %g", i, it.rank, want)
			}
		}
	})
	t.Run("nil_and_defaults", func(t *testing.T) {
		var b *Retain[TraceSnapshot]
		b.Add(TraceSnapshot{ID: "x"})
		if r, s, n := b.Snapshot(); r != nil || s != nil || n != 0 {
			t.Fatalf("nil buffer snapshot = %v %v %d", r, s, n)
		}
		if _, ok := b.Find(func(TraceSnapshot) bool { return true }); ok {
			t.Fatalf("nil buffer Find returned a value")
		}
		d := NewRetain(0, func(ts TraceSnapshot) float64 { return ts.DurMS })
		for i := 0; i <= DefaultRetainCap; i++ {
			d.Add(TraceSnapshot{DurMS: float64(i)})
		}
		if r, s, _ := d.Snapshot(); len(r) != DefaultRetainCap || len(s) != DefaultRetainCap {
			t.Fatalf("NewRetain(0) kept %d recent, %d top; want %d each", len(r), len(s), DefaultRetainCap)
		}
	})
}
