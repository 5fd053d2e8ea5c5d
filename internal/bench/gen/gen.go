// Package gen deterministically generates the synthetic PDN benchmark
// corpus — the SRAM-PG-style escalating mesh families the differential
// solver harness (internal/bench/diff) batters every registered solver
// with. A corpus entry is a small declarative Spec (JSON-serializable,
// committed under corpus/) that expands into a fully analyzable design:
// one of the four paper benchmarks perturbed along one escalation axis —
// mesh size (pitch), TSV pattern, seeded TSV failures, stacking style, or
// rail coupling (stand-alone DRAM vs. DRAM+logic). Everything is seeded:
// the same Spec always expands to the identical pdn.Spec, bit for bit,
// with no wall-clock or global-RNG input.
package gen

import (
	"fmt"
	"math"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/pdn"
)

// Spec declares one synthetic benchmark mesh. The zero value of every
// optional field means "inherit from the base benchmark".
type Spec struct {
	// Name is the unique corpus identifier (also the expanded pdn.Spec
	// name, so cache keys of distinct corpus entries never collide).
	Name string `json:"name"`
	// Base names the bench3d paper benchmark the entry perturbs:
	// "ddr3-off", "ddr3-on", "wideio", or "hmc".
	Base string `json:"base"`
	// Pitch overrides the R-Mesh node pitch in mm (the mesh-size axis;
	// smaller pitch, more nodes). 0 inherits the base pitch.
	Pitch float64 `json:"pitch_mm,omitempty"`
	// TSVStyle overrides the PG TSV placement ("C", "E", "D").
	TSVStyle string `json:"tsv_style,omitempty"`
	// TSVCount overrides the PG TSV count per interface.
	TSVCount int `json:"tsv_count,omitempty"`
	// Bonding overrides the stacking style ("F2B", "F2F").
	Bonding string `json:"bonding,omitempty"`
	// RDL overrides redistribution-layer insertion ("none", "interface",
	// "all").
	RDL string `json:"rdl,omitempty"`
	// FailRate marks this fraction of the PG TSVs as failed opens, chosen
	// by the seeded PRNG. At least one TSV always survives.
	FailRate float64 `json:"tsv_fail_rate,omitempty"`
	// Seed drives every random choice of the expansion (currently the
	// failed-TSV sample). Two Specs differing only in Seed are distinct
	// designs when FailRate > 0.
	Seed uint64 `json:"seed"`
	// UsageScale scales every PDN metal usage (the value-only axis: it
	// changes conductance magnitudes but not the mesh topology, so it is
	// the knob the restamp differential check sweeps). 0 means 1.0.
	UsageScale float64 `json:"usage_scale,omitempty"`
	// Rails selects the supply-network coupling: 0 inherits the base,
	// 1 strips the logic die (single-rail stand-alone stack), 2 requires
	// the base's coupled DRAM+logic networks.
	Rails int `json:"rails,omitempty"`
	// Counts is the analyzed memory state as per-die active-bank counts.
	// Empty inherits the base default (0-0-0-2).
	Counts []int `json:"counts,omitempty"`
	// IO is the per-die I/O activity in (0, 1]. 0 inherits the base.
	IO float64 `json:"io,omitempty"`
}

// Instance is an expanded corpus entry: the concrete design plus the
// power models and memory state needed to assemble its load vector.
type Instance struct {
	// Gen is the declarative spec the instance expanded from.
	Gen *Spec
	// Spec is the concrete design.
	Spec *pdn.Spec
	// Bench is the base paper benchmark (power models, default state).
	Bench *bench3d.Benchmark
	// Counts is the effective memory state.
	Counts []int
	// IO is the effective per-die I/O activity.
	IO float64
}

// Build expands the declarative spec into a validated design instance.
// The expansion is a pure function of the Spec value.
func (s *Spec) Build() (*Instance, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("gen: spec has no name")
	}
	b, err := bench3d.ByName(s.Base)
	if err != nil {
		return nil, fmt.Errorf("gen %s: %w", s.Name, err)
	}
	spec := b.Spec.Clone()
	spec.Name = s.Name
	if s.Pitch != 0 {
		spec.MeshPitch = s.Pitch
	}
	if s.TSVStyle != "" {
		style, err := pdn.ParseTSVLocation(s.TSVStyle)
		if err != nil {
			return nil, fmt.Errorf("gen %s: %w", s.Name, err)
		}
		spec.TSVStyle = style
	}
	if s.TSVCount != 0 {
		spec.TSVCount = s.TSVCount
	}
	if s.Bonding != "" {
		bond, err := pdn.ParseBonding(s.Bonding)
		if err != nil {
			return nil, fmt.Errorf("gen %s: %w", s.Name, err)
		}
		spec.Bonding = bond
	}
	if s.RDL != "" {
		rdl, err := pdn.ParseRDL(s.RDL)
		if err != nil {
			return nil, fmt.Errorf("gen %s: %w", s.Name, err)
		}
		spec.RDL = rdl
	}
	inst := &Instance{Gen: s, Spec: spec, Bench: b, Counts: b.DefaultCounts, IO: b.DefaultIO}
	switch s.Rails {
	case 0, 2:
		if s.Rails == 2 && !spec.OnLogic {
			return nil, fmt.Errorf("gen %s: rails=2 needs an on-logic base, %s is stand-alone", s.Name, s.Base)
		}
	case 1:
		spec.OnLogic = false
		spec.Logic = nil
		spec.LogicTech = nil
		spec.LogicUsage = nil
		spec.DedicatedTSV = false
		spec.AlignTSV = false
	default:
		return nil, fmt.Errorf("gen %s: rails %d out of range [0, 2]", s.Name, s.Rails)
	}
	if s.UsageScale != 0 {
		if s.UsageScale < 0 {
			return nil, fmt.Errorf("gen %s: negative usage scale %g", s.Name, s.UsageScale)
		}
		spec.Usage = scaleUsage(spec.Usage, s.UsageScale)
		spec.LogicUsage = scaleUsage(spec.LogicUsage, s.UsageScale)
	}
	if s.FailRate != 0 {
		if s.FailRate < 0 || s.FailRate >= 1 {
			return nil, fmt.Errorf("gen %s: TSV failure rate %g out of [0, 1)", s.Name, s.FailRate)
		}
		spec.FailedTSVs = failTSVs(spec.TSVCount, s.FailRate, s.Seed)
	}
	if len(s.Counts) > 0 {
		inst.Counts = s.Counts
	}
	if s.IO != 0 {
		if s.IO < 0 || s.IO > 1 {
			return nil, fmt.Errorf("gen %s: I/O activity %g out of (0, 1]", s.Name, s.IO)
		}
		inst.IO = s.IO
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("gen %s: expanded design invalid: %w", s.Name, err)
	}
	return inst, nil
}

// scaleUsage returns a copy of u with every usage multiplied by s. Writes
// into the fresh map are order-independent, so map iteration is safe here.
func scaleUsage(u map[string]float64, s float64) map[string]float64 {
	if u == nil {
		return nil
	}
	out := make(map[string]float64, len(u))
	for k, v := range u {
		out[k] = v * s
	}
	return out
}

// failTSVs deterministically samples round(rate·count) distinct TSV
// indices via a seeded splitmix64 partial Fisher-Yates shuffle, always
// leaving at least one TSV alive.
func failTSVs(count int, rate float64, seed uint64) map[int]bool {
	k := int(math.Round(rate * float64(count)))
	if k >= count {
		k = count - 1
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, count)
	for i := range idx {
		idx[i] = i
	}
	state := seed
	failed := make(map[int]bool, k)
	for i := 0; i < k; i++ {
		j := i + int(splitmix64(&state)%uint64(count-i))
		idx[i], idx[j] = idx[j], idx[i]
		failed[idx[i]] = true
	}
	return failed
}

// splitmix64 is the stateless-seedable PRNG behind every random choice in
// this package: identical output on every platform and Go release, unlike
// math/rand's generator, which is not covered by the compatibility
// promise for cross-version stream stability.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
