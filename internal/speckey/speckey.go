// Package speckey canonically fingerprints pdn.Spec designs and analysis
// points for cache keys. One implementation serves every caching layer —
// the experiment runner's analyzer, LUT and result caches and the serving
// layer's result cache — so the cache-key contract ("distinct designs
// cannot collide, identical designs always hit") is defined in exactly
// one place.
package speckey

import (
	"sort"
	"strconv"
	"strings"

	"pdn3d/internal/pdn"
)

// Builder assembles an unambiguous cache key: every field is written as
// <len>:<bytes>, so no combination of field values can collide with a
// different combination (unlike delimiter-joined %v formatting, where one
// field's text can absorb the delimiter).
type Builder struct {
	sb strings.Builder
}

// Str appends a length-prefixed string field.
func (k *Builder) Str(s string) {
	k.sb.WriteString(strconv.Itoa(len(s)))
	k.sb.WriteByte(':')
	k.sb.WriteString(s)
}

// Int appends an integer field.
func (k *Builder) Int(v int) { k.Str(strconv.Itoa(v)) }

// Bool appends a boolean field.
func (k *Builder) Bool(v bool) { k.Str(strconv.FormatBool(v)) }

// Float appends the exact value (shortest round-trip form), so specs that
// differ only past some decimal place never share a key.
func (k *Builder) Float(v float64) { k.Str(strconv.FormatFloat(v, 'g', -1, 64)) }

// Usage appends a string-keyed float map in sorted key order.
func (k *Builder) Usage(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	k.Int(len(keys))
	for _, key := range keys {
		k.Str(key)
		k.Float(m[key])
	}
}

// String returns the assembled key.
func (k *Builder) String() string { return k.sb.String() }

// Support appends the sorted nonzero-keyed support of a string-keyed
// float map — which entries exist, not their magnitudes. Layers with zero
// usage are not built at all, so the support is part of a design's mesh
// shape while the magnitudes are not.
func (k *Builder) Support(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for key, v := range m {
		if v != 0 {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	k.Int(len(keys))
	for _, key := range keys {
		k.Str(key)
	}
}

// Topology fingerprints the spec fields that determine the R-Mesh shape:
// node numbering, layer/via/link structure, and the symbolic CSR pattern.
// Two specs with equal topology keys can share one rmesh.Topology — only
// conductance values differ between them. The metal usage maps contribute
// only their support (which layers exist), never their magnitudes.
func Topology(s *pdn.Spec) string {
	var k Builder
	k.Str(s.Name)
	k.Int(s.NumDRAM)
	k.Support(s.Usage)
	k.Support(s.LogicUsage)
	k.Int(s.TSVCount)
	k.Str(s.TSVStyle.String())
	k.Str(s.Bonding.String())
	k.Str(s.RDL.String())
	k.Bool(s.WireBond)
	k.Bool(s.DedicatedTSV)
	k.Bool(s.AlignTSV)
	k.Int(s.WiresPerDie)
	k.Float(s.EffMeshPitch())
	k.Bool(s.OnLogic)
	failed := make([]int, 0, len(s.FailedTSVs))
	for f := range s.FailedTSVs {
		failed = append(failed, f)
	}
	sort.Ints(failed)
	k.Int(len(failed))
	for _, f := range failed {
		k.Int(f)
	}
	return k.String()
}

// Values fingerprints the spec fields a value-only restamp rewrites: the
// metal usage magnitudes (which set every layer's effective sheet
// resistance) and whether the logic die is analyzed loaded, which changes
// the right-hand side without changing the spec.
func Values(s *pdn.Spec, withLogic bool) string {
	var k Builder
	k.Usage(s.Usage)
	k.Usage(s.LogicUsage)
	k.Bool(withLogic)
	return k.String()
}

// Spec fingerprints every spec field the R-Mesh build and power models
// read, canonically: distinct designs cannot collide, identical designs
// always hit the cache. It is the framed concatenation of the Topology
// and Values keys, so the full key splits cleanly into "which mesh shape"
// (the key an rmesh.Topology is frozen under) and "which conductance
// values".
func Spec(s *pdn.Spec, withLogic bool) string {
	var k Builder
	k.Str(Topology(s))
	k.Str(Values(s, withLogic))
	return k.String()
}

// Point fingerprints one analysis: a design's Spec key, a memory state's
// canonical key (memstate.State.Key: exact bank placement, not just
// counts) and the per-die I/O activity. It keys every per-point answer
// cache, the experiment runner's and the serving layer's alike.
func Point(designKey, stateKey string, io float64) string {
	var k Builder
	k.Str(designKey)
	k.Str(stateKey)
	k.Float(io)
	return k.String()
}
