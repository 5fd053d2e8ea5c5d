package rmesh

import (
	"testing"

	"pdn3d/internal/pdn"
)

// sweepSpecs returns the value-only sweep the co-optimizer runs: points
// usage magnitudes over a fixed mesh shape.
func sweepSpecs(base *pdn.Spec, points int) []*pdn.Spec {
	out := make([]*pdn.Spec, points)
	for i := range out {
		s := base.Clone()
		f := 0.5 + float64(i)/float64(points)
		s.Usage = map[string]float64{}
		for k, v := range base.Usage {
			s.Usage[k] = v * f
		}
		out[i] = s
	}
	return out
}

func benchSpec(b *testing.B) *pdn.Spec {
	s := offChipSpec(b)
	s.MeshPitch = 0.3 // ~paper-adjacent fidelity without benchmark-length builds
	return s
}

// BenchmarkValueSweepFullBuild is the one-phase baseline: every sweep
// point pays geometry, symbolic sort, and numeric stamp.
func BenchmarkValueSweepFullBuild(b *testing.B) {
	specs := sweepSpecs(benchSpec(b), 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := Build(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkValueSweepRestamp is the two-phase pipeline on the same sweep:
// the topology freezes once, and NewModel stamps every point's values
// into a fresh matrix over it.
func BenchmarkValueSweepRestamp(b *testing.B) {
	specs := sweepSpecs(benchSpec(b), 50)
	topo, err := BuildTopology(specs[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := topo.NewModel(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRestamp is the single-point cost of stamping values over a
// frozen shape with NewModel — the CI allocation guard runs this with
// -benchmem and fails if allocs/op grows past the small fixed budget
// (NewModel allocates its value array once and nothing per stamp).
func BenchmarkRestamp(b *testing.B) {
	spec := benchSpec(b)
	scaled := sweepSpecs(spec, 2)
	topo, err := BuildTopology(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topo.NewModel(scaled[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildTopology is the one-time cost NewModel amortizes.
func BenchmarkBuildTopology(b *testing.B) {
	spec := benchSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTopology(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildTopologyFine is the same cold build at the fine-mesh
// pitch: ddr3-off at 0.07 mm, 76,048 nodes and 453,366 matrix entries,
// where the symbolic freeze's cost per stamp shows.
func BenchmarkBuildTopologyFine(b *testing.B) {
	spec := offChipSpec(b)
	spec.MeshPitch = 0.07
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTopology(spec); err != nil {
			b.Fatal(err)
		}
	}
}
