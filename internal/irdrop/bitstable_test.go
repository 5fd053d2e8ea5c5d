package irdrop_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/irdrop"
	"pdn3d/internal/obs"
	"pdn3d/internal/pdn"
)

var update = flag.Bool("update", false, "rewrite testdata/answers.golden")

const answersGolden = "testdata/answers.golden"

// irHash is the SHA-256 of the little-endian float64 bits of an IR vector.
func irHash(ir []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range ir {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bitStableLines analyzes the three states of spec and solves one
// unit-term response, returning one golden line per answer: its name, its
// CG iteration count and the hash of its IR vector.
func bitStableLines(t *testing.T, b *bench3d.Benchmark, spec *pdn.Spec, label string) []string {
	t.Helper()
	a := designAnalyzer(t, b, spec)
	a.SolveRecords = obs.NewSolveBuffer(1)
	var lines []string
	for _, st := range threeStates(t, spec) {
		r, err := a.AnalyzeCtx(context.Background(), st, b.DefaultIO)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s state=%s iters=%d ir=%s", label, st, r.Stats.Iterations, irHash(r.IR)))
	}
	term := irdrop.Term{Kind: irdrop.TermBank, Die: spec.NumDRAM - 1, Bank: 0}
	ir, err := a.ResponseCtx(context.Background(), []irdrop.Term{term})
	if err != nil {
		t.Fatal(err)
	}
	recent, _, _ := a.SolveRecords.Snapshot()
	lines = append(lines, fmt.Sprintf("%s term=%q iters=%d ir=%s", label, term, recent[0].Iterations, irHash(ir[0])))
	return lines
}

// TestAnswersBitStable pins every answer's exact bits: the IR vectors and
// CG iteration counts of the four paper designs at full pitch (three
// states each, plus one unit-term response) and of ddr3-off at 0.07 mm
// (76,048 nodes, cg-amg), against a golden written with -update. A
// kernel, preconditioner or stamping change that claims to keep today's
// arithmetic must pass unchanged. The golden is amd64's: other
// architectures may fuse multiply-adds and round differently.
func TestAnswersBitStable(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are amd64's; GOARCH is %s", runtime.GOARCH)
	}
	bs, err := bench3d.All()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, b := range bs {
		got = append(got, bitStableLines(t, b, b.Spec, b.Name)...)
	}
	fine := !testing.Short() && !raceEnabled
	if fine {
		b, err := bench3d.StackedDDR3Off()
		if err != nil {
			t.Fatal(err)
		}
		spec := b.Spec.Clone()
		spec.MeshPitch = 0.07
		got = append(got, bitStableLines(t, b, spec, b.Name+"@0.07")...)
	}
	if *update {
		if !fine {
			t.Fatal("-update needs the fine mesh: run without -short and -race")
		}
		if err := os.MkdirAll(filepath.Dir(answersGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(answersGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(answersGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if !fine && len(want) > len(got) {
		want = want[:len(got)] // the fine-mesh lines come last
	}
	if len(got) != len(want) {
		t.Fatalf("%d answers, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("answer %d changed:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
