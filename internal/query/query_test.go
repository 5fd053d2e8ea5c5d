package query

import (
	"errors"
	"strings"
	"testing"

	"pdn3d/internal/bench3d"
)

func valid() Query {
	return Query{Bench: "ddr3-off", State: "0-0-0-2", IO: 1.0}
}

// The table-driven validator test CLI and server both lean on: every
// rejected input names the offending field through a *FieldError.
func TestValidate(t *testing.T) {
	tests := []struct {
		name      string
		mut       func(*Query)
		wantField string // "" = valid
	}{
		{"baseline", func(q *Query) {}, ""},
		{"full overrides", func(q *Query) {
			q.Bonding, q.Style, q.RDL, q.TSV, q.Pitch = "f2f", "e", "interface", 33, 0.5
		}, ""},
		{"io smallest covered", func(q *Query) { q.IO = 0.25 }, ""},

		{"missing bench", func(q *Query) { q.Bench = "" }, "bench"},
		{"io zero", func(q *Query) { q.IO = 0 }, "io"},
		{"io negative", func(q *Query) { q.IO = -0.5 }, "io"},
		{"io above one", func(q *Query) { q.IO = 1.01 }, "io"},
		{"negative tsv", func(q *Query) { q.TSV = -1 }, "tsv"},
		{"negative pitch", func(q *Query) { q.Pitch = -0.2 }, "pitch"},
		{"bad bonding", func(q *Query) { q.Bonding = "F2X" }, "bonding"},
		{"bad style", func(q *Query) { q.Style = "Q" }, "style"},
		{"bad rdl", func(q *Query) { q.RDL = "some" }, "rdl"},
		{"bad state syntax", func(q *Query) { q.State = "0-x-0-2" }, "state"},
		{"negative state count", func(q *Query) { q.State = "0--1-0-2" }, "state"},
		{"empty state", func(q *Query) { q.State = "" }, "state"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			q := valid()
			tc.mut(&q)
			err := q.Validate()
			if tc.wantField == "" {
				if err != nil {
					t.Fatalf("Validate: unexpected error %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate: want error on field %q", tc.wantField)
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a *FieldError", err)
			}
			if fe.Field != tc.wantField {
				t.Errorf("error field = %q, want %q (%v)", fe.Field, tc.wantField, err)
			}
		})
	}
}

// Design-dependent rejections only Resolve can make.
func TestResolveRejects(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Query)
		want string
	}{
		{"unknown bench", func(q *Query) { q.Bench = "lpddr5" }, "bench"},
		{"wrong die count", func(q *Query) { q.State = "0-0-2" }, "state"},
		{"count over banks", func(q *Query) { q.State = "0-0-0-99" }, "state"},
		{"mesh above the node budget", func(q *Query) { q.Pitch = 1e-6 }, "pitch"},
		{"pitch too coarse for the die", func(q *Query) { q.Pitch = 100 }, "pitch"},
		{"dedicated TSVs off-chip", func(q *Query) { q.Dedicated = true }, "dedicated"},
		{"tsv above the die's sites", func(q *Query) { q.TSV = 1_000_000_000 }, "tsv"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			q := valid()
			tc.mut(&q)
			_, err := q.Resolve()
			var fe *FieldError
			if err == nil || !errors.As(err, &fe) || fe.Field != tc.want {
				t.Fatalf("Resolve = %v, want *FieldError on %q", err, tc.want)
			}
		})
	}
}

// The TSV bound sits exactly at the die's site count, and every
// benchmark's design space fits under it.
func TestResolveTSVBound(t *testing.T) {
	for _, name := range []string{"ddr3-off", "ddr3-on", "wideio", "hmc"} {
		b, err := bench3d.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		limit := b.Spec.MaxTSVCount()
		if top := b.Space.TSVRange[1]; top > limit {
			t.Errorf("%s: design space reaches %d TSVs, above the %d sites", name, top, limit)
		}
		q := Query{Bench: name, TSV: limit}
		if _, err := q.ResolveDesign(); err != nil {
			t.Errorf("%s: %d TSVs (the site count): %v", name, limit, err)
		}
		q.TSV++
		var fe *FieldError
		if _, err := q.ResolveDesign(); !errors.As(err, &fe) || fe.Field != "tsv" {
			t.Errorf("%s: %d TSVs: %v, want a *FieldError on tsv", name, q.TSV, err)
		}
	}
}

func TestResolveAppliesOverrides(t *testing.T) {
	q := valid()
	q.Bonding, q.Style, q.RDL = "F2F", "C", "interface"
	q.TSV, q.Pitch = 64, 0.5
	q.Wirebond = true
	r, err := q.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Spec.TSVCount != 64 || r.Spec.MeshPitch != 0.5 || !r.Spec.WireBond {
		t.Errorf("overrides not applied: %+v", r.Spec)
	}
	if got := r.Spec.Bonding.String(); got != "F2F" {
		t.Errorf("bonding = %s", got)
	}
	if got := r.State.String(); got != "0-0-0-2" {
		t.Errorf("state = %s", got)
	}
}

// The cache key must separate design, state, and io changes.
func TestCacheKeySeparatesAxes(t *testing.T) {
	base, err := valid().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	muts := []func(*Query){
		func(q *Query) { q.TSV = 64 },
		func(q *Query) { q.State = "0-0-2-0" },
		func(q *Query) { q.IO = 0.5 },
		func(q *Query) { q.Bonding = "F2F" },
	}
	seen := map[string]bool{base.CacheKey(): true}
	for i, mut := range muts {
		q := valid()
		mut(&q)
		r, err := q.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if seen[r.CacheKey()] {
			t.Errorf("mutation %d collided with a previous key", i)
		}
		seen[r.CacheKey()] = true
	}
	again, err := valid().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheKey() != base.CacheKey() {
		t.Error("identical queries produced different cache keys")
	}
}

// Error strings stay in the shared "memstate: bad state" format so the
// CLIs and the server report state problems identically.
func TestStateErrorsShareFormat(t *testing.T) {
	q := valid()
	q.State = "0-0-2"
	_, err := q.Resolve()
	if err == nil || !strings.Contains(err.Error(), "memstate: bad state") {
		t.Errorf("error %v missing shared memstate format", err)
	}
}
