// Package query defines the one IR-drop query shape shared by every entry
// point — the irsim CLI flags and the pdnserve JSON API both decode into a
// Query — so input validation (I/O activity range, TSV count, mesh pitch,
// state-string syntax and design bounds) lives in exactly one validator
// and cannot drift between the command line and the network surface.
package query

import (
	"fmt"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/memstate"
	"pdn3d/internal/pdn"
	"pdn3d/internal/powermap"
	"pdn3d/internal/rmesh"
	"pdn3d/internal/speckey"
)

// Query is one IR-drop analysis request: a benchmark design, optional
// packaging overrides, a memory state, and the per-die I/O activity.
// The JSON tags define the /v1/analyze request schema.
type Query struct {
	// Bench names the base benchmark: "ddr3-off", "ddr3-on", "wideio",
	// "hmc".
	Bench string `json:"bench"`
	// State is the memory state in the paper's "R1-R2-...-Rn" notation.
	State string `json:"state"`
	// IO is the per-die I/O activity in (0,1].
	IO float64 `json:"io"`

	// Bonding overrides the stacking style ("F2B" or "F2F"; empty keeps
	// the benchmark default).
	Bonding string `json:"bonding,omitempty"`
	// TSV overrides the PG TSV count (0 keeps the default).
	TSV int `json:"tsv,omitempty"`
	// Style overrides the TSV placement style ("C", "E", "D").
	Style string `json:"style,omitempty"`
	// RDL overrides redistribution-layer insertion ("none", "interface",
	// "all").
	RDL string `json:"rdl,omitempty"`
	// Wirebond adds backside wire bonding.
	Wirebond bool `json:"wirebond,omitempty"`
	// Dedicated adds dedicated via-last TSVs (on-chip designs).
	Dedicated bool `json:"dedicated,omitempty"`
	// Align aligns TSVs to C4 bumps (on-chip designs).
	Align bool `json:"align,omitempty"`
	// Pitch overrides the R-Mesh pitch in mm (0 keeps the default).
	Pitch float64 `json:"pitch,omitempty"`
}

// FieldError reports which query field failed validation; entry points
// render it directly (the CLI as a flag error, the server as HTTP 400).
type FieldError struct {
	// Field is the JSON name / flag name of the offending field.
	Field string
	// Msg says what is wrong with it.
	Msg string
}

func (e *FieldError) Error() string { return fmt.Sprintf("query: -%s: %s", e.Field, e.Msg) }

func fieldErr(field, format string, args ...interface{}) error {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// validateDesign checks the design-selecting fields alone (benchmark name,
// numeric ranges, enum spellings) — everything a state-free request like a
// LUT build needs.
func (q Query) validateDesign() error {
	if q.Bench == "" {
		return fieldErr("bench", "benchmark name required")
	}
	if q.TSV < 0 {
		return fieldErr("tsv", "TSV count %d must be >= 0 (0 keeps the benchmark default)", q.TSV)
	}
	if q.Pitch < 0 {
		return fieldErr("pitch", "mesh pitch %g mm must be >= 0 (0 keeps the benchmark default)", q.Pitch)
	}
	if q.Bonding != "" {
		if _, err := pdn.ParseBonding(q.Bonding); err != nil {
			return fieldErr("bonding", "%v", err)
		}
	}
	if q.Style != "" {
		if _, err := pdn.ParseTSVLocation(q.Style); err != nil {
			return fieldErr("style", "%v", err)
		}
	}
	if q.RDL != "" {
		if _, err := pdn.ParseRDL(q.RDL); err != nil {
			return fieldErr("rdl", "%v", err)
		}
	}
	return nil
}

// Validate checks every field that can be checked without loading the
// benchmark: numeric ranges, enum spellings, and state-string syntax.
// Design-dependent checks (die count, per-die bank cap) happen in Resolve.
func (q Query) Validate() error {
	if err := q.validateDesign(); err != nil {
		return err
	}
	if err := CheckIO("io", q.IO); err != nil {
		return err
	}
	if _, err := memstate.ParseCounts(q.State); err != nil {
		return fieldErr("state", "%v", err)
	}
	return nil
}

// CheckIO applies the I/O activity rule, a fraction in (0,1], to one
// value of the named field: a *FieldError on field when it fails.
func CheckIO(field string, io float64) error {
	if io <= 0 || io > 1 {
		return fieldErr(field, "activity %g out of (0,1]", io)
	}
	return nil
}

// Resolved is a query bound to its benchmark: the overridden spec, the
// explicit memory state, and the power models the analyzer needs.
type Resolved struct {
	// Query is the validated input.
	Query Query
	// Bench is the loaded base benchmark.
	Bench *bench3d.Benchmark
	// Spec is the cloned spec with every override applied.
	Spec *pdn.Spec
	// Counts is the parsed per-die active-bank vector.
	Counts []int
	// State is the explicit state at the paper's worst-case placement.
	State memstate.State
	// Logic is the logic-die power model (nil for off-chip designs).
	Logic *powermap.LogicModel
}

// ResolveDesign is Resolve for state-free requests (LUT builds): it
// validates and binds only the design-selecting fields; State and IO are
// ignored and may be empty. Counts and State in the result are zero values.
func (q Query) ResolveDesign() (*Resolved, error) {
	if err := q.validateDesign(); err != nil {
		return nil, err
	}
	b, err := bench3d.ByName(q.Bench)
	if err != nil {
		return nil, fieldErr("bench", "%v", err)
	}
	spec := b.Spec.Clone()
	if q.Bonding != "" {
		spec.Bonding, _ = pdn.ParseBonding(q.Bonding)
	}
	if q.TSV > 0 {
		spec.TSVCount = q.TSV
	}
	if q.Style != "" {
		spec.TSVStyle, _ = pdn.ParseTSVLocation(q.Style)
	}
	if q.RDL != "" {
		spec.RDL, _ = pdn.ParseRDL(q.RDL)
	}
	if q.Wirebond {
		spec.WireBond = true
	}
	if q.Dedicated {
		spec.DedicatedTSV = true
	}
	if q.Align {
		spec.AlignTSV = true
	}
	if q.Pitch > 0 {
		spec.MeshPitch = q.Pitch
	}
	// The fields are range-checked above; what is left are combinations
	// this benchmark cannot build. Dedicated TSVs need an on-chip design,
	// the TSV count must fit the die, and after those checks the spec can
	// only fail validation on a pitch too coarse for the die, or exceed
	// the mesh node budget.
	if q.Dedicated && !spec.OnLogic {
		return nil, fieldErr("dedicated", "dedicated TSVs need an on-chip design; %s is off-chip", q.Bench)
	}
	if limit := spec.MaxTSVCount(); spec.TSVCount > limit {
		return nil, fieldErr("tsv", "TSV count %d exceeds the %d sites that fit the %s die at the %g mm TSV pitch",
			spec.TSVCount, limit, q.Bench, spec.DRAMTech.PGTSV.Pitch)
	}
	if err := rmesh.CheckSize(spec); err != nil {
		return nil, fieldErr("pitch", "%v", err)
	}
	return &Resolved{Query: q, Bench: b, Spec: spec, Logic: b.LogicFor(spec)}, nil
}

// Resolve validates the query, loads its benchmark, applies the packaging
// overrides to a cloned spec, and binds the memory state against the
// design's die and bank counts.
func (q Query) Resolve() (*Resolved, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	r, err := q.ResolveDesign()
	if err != nil {
		return nil, err
	}
	spec := r.Spec
	counts, err := memstate.ParseCountsFor(q.State, spec.NumDRAM, spec.DRAM.NumBanks)
	if err != nil {
		return nil, fieldErr("state", "%v", err)
	}
	state, err := memstate.FromCounts(counts, memstate.WorstCaseEdge(spec.DRAM.NumBanks))
	if err != nil {
		return nil, fieldErr("state", "%v", err)
	}
	r.Counts, r.State = counts, state
	return r, nil
}

// SpecKey canonically fingerprints the resolved design (shared speckey
// contract): two queries whose overrides produce the same design share it.
func (r *Resolved) SpecKey() string {
	return speckey.Spec(r.Spec, r.Logic != nil)
}

// CacheKey canonically identifies the full analysis (design, explicit
// state, I/O activity): the serving layer's result-cache and singleflight
// key, the same speckey.Point the experiment runner keys its answers by.
func (r *Resolved) CacheKey() string {
	return speckey.Point(r.SpecKey(), r.State.Key(), r.Query.IO)
}
