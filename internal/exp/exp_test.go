package exp

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"pdn3d/internal/obs"
	"pdn3d/internal/report"
)

var (
	runnerOnce sync.Once
	testRunner *Runner
)

// runner shares cached analyzers/LUTs across this package's tests; all
// experiments here run on a coarse mesh with a shortened workload.
func runner() *Runner {
	runnerOnce.Do(func() {
		testRunner = NewRunner(Config{MeshPitch: 0.5, Requests: 3000})
	})
	return testRunner
}

// cell parses table cell (r, c) as a float, tolerating decorations.
func cell(t *testing.T, tab interface{ String() string }, rows [][]string, r, c int) float64 {
	t.Helper()
	f := strings.Fields(strings.ReplaceAll(rows[r][c], "(", " "))[0]
	v, err := strconv.ParseFloat(strings.TrimSuffix(f, "%"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric:\n%s", r, c, rows[r][c], tab)
	}
	return v
}

func TestTable1(t *testing.T) {
	tab, err := runner().Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 benchmarks", len(tab.Rows))
	}
}

func TestMetalUsageStudy(t *testing.T) {
	tab, err := runner().MetalUsageStudy()
	if err != nil {
		t.Fatal(err)
	}
	base := cell(t, tab, tab.Rows, 0, 2)
	dbl := cell(t, tab, tab.Rows, 1, 2)
	red := (base - dbl) / base
	if red < 0.40 {
		t.Errorf("2x metal reduces IR by %.1f%%, paper says > 40%%", red*100)
	}
}

func TestMountingStudy(t *testing.T) {
	tab, err := runner().MountingStudy()
	if err != nil {
		t.Fatal(err)
	}
	off := cell(t, tab, tab.Rows, 0, 1)
	on := cell(t, tab, tab.Rows, 1, 1)
	if on < 1.5*off {
		t.Errorf("on-chip coupling %.1f mV should dwarf off-chip %.1f mV (paper 64.41 vs 30.03)", on, off)
	}
}

func TestTable2Ordering(t *testing.T) {
	tab, err := runner().Table2()
	if err != nil {
		t.Fatal(err)
	}
	a := cell(t, tab, tab.Rows, 0, 1)
	b := cell(t, tab, tab.Rows, 1, 1)
	c := cell(t, tab, tab.Rows, 2, 1)
	d := cell(t, tab, tab.Rows, 3, 1)
	// Paper ordering: edge (a) best, center (b) worst; RDL variants in
	// between on their own sides.
	if !(a < c && c < b) {
		t.Errorf("ordering violated: a=%.1f c=%.1f b=%.1f (want a < c < b)", a, c, b)
	}
	if d > b*1.05 {
		t.Errorf("(d) center+RDL %.1f should not exceed (b) center %.1f by much", d, b)
	}
	// Cost ordering: (b) center cheapest (Table 2: Lowest).
	cb := cell(t, tab, tab.Rows, 1, 3)
	for r := 0; r < 4; r++ {
		if cr := cell(t, tab, tab.Rows, r, 3); cr < cb-1e-9 {
			t.Errorf("option %d cost %.3f below center option %.3f", r, cr, cb)
		}
	}
}

func TestTable3WireBondStory(t *testing.T) {
	tab, err := runner().Table3()
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: on-chip without dedicated TSVs — wire bonding halves the IR.
	base := cell(t, tab, tab.Rows, 0, 1)
	wb := cell(t, tab, tab.Rows, 0, 2)
	if (base-wb)/base < 0.30 {
		t.Errorf("on-chip wire bonding saves %.0f%%, paper says ~53%%", (base-wb)/base*100)
	}
	// Rows 1/2: dedicated or off-chip designs gain only marginally
	// (paper: -12.8% / -9.8%; both small compared to row 0).
	for r := 1; r < 3; r++ {
		b2 := cell(t, tab, tab.Rows, r, 1)
		w2 := cell(t, tab, tab.Rows, r, 2)
		if (b2-w2)/b2 > 0.20 {
			t.Errorf("row %d: wire bonding saves %.0f%%, should be marginal", r, (b2-w2)/b2*100)
		}
		if w2 > b2*1.01 {
			t.Errorf("row %d: wire bonding made IR worse (%.2f -> %.2f)", r, b2, w2)
		}
	}
}

func TestTable4OverlapStory(t *testing.T) {
	tab, err := runner().Table4()
	if err != nil {
		t.Fatal(err)
	}
	get := func(r int) (f2b, f2f float64) {
		return cell(t, tab, tab.Rows, r, 2), cell(t, tab, tab.Rows, r, 3)
	}
	// Overlapping rows (0, 1): F2F gives no meaningful benefit.
	for r := 0; r < 2; r++ {
		b, f := get(r)
		if (b-f)/b > 0.05 {
			t.Errorf("overlap row %d: F2F gain %.1f%% should be tiny", r, (b-f)/b*100)
		}
	}
	// Inter-pair rows (2, 3): the idle partner's PDN buys ~40 %.
	for r := 2; r < 4; r++ {
		b, f := get(r)
		if (b-f)/b < 0.30 {
			t.Errorf("inter-pair row %d: F2F gain %.1f%% too small (paper ~43%%)", r, (b-f)/b*100)
		}
	}
	// Same-pair non-overlap rows (4-6): gain between the two extremes,
	// growing with separation (d >= b).
	gb, _ := get(4)
	fb := cell(t, tab, tab.Rows, 4, 3)
	gd, _ := get(6)
	fd := cell(t, tab, tab.Rows, 6, 3)
	gainB := (gb - fb) / gb
	gainD := (gd - fd) / gd
	if gainB <= 0.0 || gainB >= 0.40 {
		t.Errorf("same-pair gain %.1f%% outside (0, 40%%)", gainB*100)
	}
	if gainD < gainB-0.02 {
		t.Errorf("farther separation should gain at least as much: d %.1f%% vs b %.1f%%", gainD*100, gainB*100)
	}
}

func TestTable5Story(t *testing.T) {
	tab, err := runner().Table5()
	if err != nil {
		t.Fatal(err)
	}
	full := cell(t, tab, tab.Rows, 0, 4)    // 0-0-0-2 @100%, F2B
	quarter := cell(t, tab, tab.Rows, 4, 4) // 0-0-0-2 @25%, F2B
	powerDrop := 1 - 126.0/220.5            // -42.9% die power
	irDrop := 1 - quarter/full
	if irDrop >= powerDrop {
		t.Errorf("IR reduction %.1f%% should lag the %.1f%% power reduction (paper: 23.6%% vs 44.7%%)",
			irDrop*100, powerDrop*100)
	}
	// F2F worst case is the overlapping 0-0-2-2 row, not 0-0-0-2 (§5.1).
	f2fTop := cell(t, tab, tab.Rows, 0, 5)
	f2fOverlap := cell(t, tab, tab.Rows, 3, 5)
	if f2fOverlap <= f2fTop {
		t.Errorf("F2F worst case should be 0-0-2-2 (%.1f) not 0-0-0-2 (%.1f)", f2fOverlap, f2fTop)
	}
}

func TestTable6PolicyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("controller study is slow")
	}
	_, res, err := runner().Table6()
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Standard.Bandwidth < res.IRFCFS.Bandwidth && res.IRFCFS.Bandwidth < res.IRDistR.Bandwidth) {
		t.Errorf("bandwidth ordering violated: %.3f / %.3f / %.3f",
			res.Standard.Bandwidth, res.IRFCFS.Bandwidth, res.IRDistR.Bandwidth)
	}
	if res.IRFCFS.MaxIR > res.EffLimitV || res.IRDistR.MaxIR > res.EffLimitV {
		t.Errorf("IR-aware policies violated the %.1f mV constraint: %.2f / %.2f mV",
			res.EffLimitV*1000, res.IRFCFS.MaxIR*1000, res.IRDistR.MaxIR*1000)
	}
	if res.Standard.MaxIR <= res.EffLimitV {
		t.Errorf("standard policy should exceed the constraint (%.2f mV)", res.Standard.MaxIR*1000)
	}
}

func TestFigure4Validation(t *testing.T) {
	_, v, err := runner().Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if v.ErrPct > 12 {
		t.Errorf("R-Mesh error %.1f%% vs refined reference too large", v.ErrPct)
	}
	if v.Speedup <= 1 {
		t.Errorf("speedup %.1fx should exceed 1", v.Speedup)
	}
}

func TestFigure5Shape(t *testing.T) {
	s, err := runner().Figure5()
	if err != nil {
		t.Fatal(err)
	}
	off, mis, al := s.Y[0], s.Y[1], s.Y[2]
	n := len(s.X)
	// Saturation: the last doubling buys far less than the first.
	firstGain := off[0] - off[1]
	lastGain := off[n-2] - off[n-1]
	if lastGain > firstGain {
		t.Errorf("off-chip TSV benefit should saturate: first %.2f, last %.2f", firstGain, lastGain)
	}
	for i := range s.X {
		if al[i] > mis[i] {
			t.Errorf("TC=%g: aligned %.1f must not exceed misaligned %.1f", s.X[i], al[i], mis[i])
		}
	}
	// Misalignment penalty is worst at low TSV counts (paper §3.2).
	if (mis[0]-al[0])/mis[0] < (mis[n-1]-al[n-1])/mis[n-1] {
		t.Error("alignment should matter most at small TSV counts")
	}
}

func TestFigure9Feasibility(t *testing.T) {
	if testing.Short() {
		t.Skip("constraint sweep is slow")
	}
	s, err := runner().Figure9([]float64{10, 24, 30})
	if err != nil {
		t.Fatal(err)
	}
	// Case 4 (on-chip F2B, ~64 mV design) cannot run at 10 mV.
	if s.Y[3][0] != 0 {
		t.Errorf("case 4 at 10 mV should be infeasible, got %.1f us", s.Y[3][0])
	}
	// Where feasible, a looser constraint never runs slower.
	for ci := range s.Y {
		for i := 1; i < len(s.X); i++ {
			if s.Y[ci][i-1] == 0 || s.Y[ci][i] == 0 {
				continue
			}
			if s.Y[ci][i] > s.Y[ci][i-1]*1.02 {
				t.Errorf("case %d: runtime rose from %.1f to %.1f us with a looser constraint",
					ci, s.Y[ci][i-1], s.Y[ci][i])
			}
		}
	}
}

func TestTable7CasesOrdering(t *testing.T) {
	tab, err := runner().Table7()
	if err != nil {
		t.Fatal(err)
	}
	ir := make([]float64, 6)
	for i := range ir {
		ir[i] = cell(t, tab, tab.Rows, i, 1)
	}
	// Paper: case3 (F2F) < case2 (1.5x metal) < case1 < case5 (WB) < case4/6.
	if !(ir[2] < ir[1] && ir[1] < ir[0]) {
		t.Errorf("off-chip ordering violated: F2F %.1f, 1.5x %.1f, base %.1f", ir[2], ir[1], ir[0])
	}
	if !(ir[4] < ir[3]) {
		t.Errorf("wire bonding should beat plain on-chip: %.1f vs %.1f", ir[4], ir[3])
	}
	if ir[3] < 1.5*ir[0] {
		t.Errorf("on-chip case %.1f should dwarf off-chip %.1f", ir[3], ir[0])
	}
}

func TestTable8Renders(t *testing.T) {
	tab, err := runner().Table8()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Errorf("rows = %d, want 8 cost terms", len(tab.Rows))
	}
}

func TestTable9QuickStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("co-optimization is slow")
	}
	tab, err := runner().Table9("ddr3-off")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 3 alphas + baseline", len(tab.Rows))
	}
	// alpha=0 row must be the cheapest, alpha=1 the lowest measured IR.
	costA0 := cell(t, tab, tab.Rows, 0, 11)
	irA1 := cell(t, tab, tab.Rows, 2, 10)
	for r := 0; r < 4; r++ {
		if c := cell(t, tab, tab.Rows, r, 11); c < costA0-1e-9 {
			t.Errorf("row %d cost %.2f below alpha=0 cost %.2f", r, c, costA0)
		}
		if ir := cell(t, tab, tab.Rows, r, 10); ir < irA1-1e-9 {
			t.Errorf("row %d IR %.2f below alpha=1 IR %.2f", r, ir, irA1)
		}
	}
}

// One Runner fits a benchmark's regression models once, however Table 9
// and the §6.1 regression study interleave, repeat or overlap, and each
// table reads exactly what a fresh Runner prints for it alone. Run with
// -race: the concurrent pair shares one fitted optimizer.
func TestCoOptimizationFitsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("co-optimization is slow")
	}
	const bench = "ddr3-off"
	studies := map[string]func(r *Runner) (*report.Table, error){
		"table9":     func(r *Runner) (*report.Table, error) { return r.Table9(bench) },
		"regression": func(r *Runner) (*report.Table, error) { return r.RegressionStudy(bench) },
	}
	cfg := Config{MeshPitch: 0.6}
	want := map[string]string{}
	for id, study := range studies {
		tab, err := study(NewRunner(cfg))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = tab.String()
	}

	reg := obs.NewRegistry()
	cfg.Obs = reg
	r := NewRunner(cfg)
	check := func(id string, tab *report.Table, err error) {
		if err != nil {
			t.Errorf("%s: %v", id, err)
			return
		}
		if got := tab.String(); got != want[id] {
			t.Errorf("%s on the shared runner differs from a fresh runner's:\n--- fresh ---\n%s\n--- shared ---\n%s", id, want[id], got)
		}
	}
	for _, id := range []string{"regression", "table9", "table9", "regression"} {
		tab, err := studies[id](r)
		check(id, tab, err)
	}
	var wg sync.WaitGroup
	for id, study := range studies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab, err := study(r)
			check(id, tab, err)
		}()
	}
	wg.Wait()

	snap := reg.Snapshot()
	fits := 0
	for _, sp := range snap.Spans {
		if sp.Name == "opt/fit-models" {
			fits++
		}
	}
	if fits != 1 || snap.Counters["exp.fit_cache.misses"] != 1 {
		t.Errorf("%d opt/fit-models spans and %d fit cache misses for one benchmark, want 1 each",
			fits, snap.Counters["exp.fit_cache.misses"])
	}
}

func TestCrowdingStudy(t *testing.T) {
	tab, err := runner().CrowdingStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 8 {
		t.Fatalf("rows = %d, want >= 8 (4 TSV counts x 2 branch kinds)", len(tab.Rows))
	}
	// Peak TSV current must fall as the TSV count grows.
	var first, last float64
	for _, row := range tab.Rows {
		if row[1] != "TSV" {
			continue
		}
		v := cell(t, tab, [][]string{row}, 0, 3)
		if first == 0 {
			first = v
		}
		last = v
	}
	if last >= first {
		t.Errorf("peak TSV current should fall with more TSVs: %.2f -> %.2f mA", first, last)
	}
}

func TestTSVFailureStudy(t *testing.T) {
	tab, err := runner().TSVFailureStudy()
	if err != nil {
		t.Fatal(err)
	}
	// IR must be non-decreasing with the failed fraction within each
	// TSV-count block, and a 120-TSV design must tolerate 50% loss better
	// than a 33-TSV design (relative increase).
	var rel33, rel120 float64
	for blk := 0; blk < 2; blk++ {
		base := cell(t, tab, tab.Rows, blk*4, 3)
		prev := base
		for i := 1; i < 4; i++ {
			v := cell(t, tab, tab.Rows, blk*4+i, 3)
			if v < prev*0.999 {
				t.Errorf("block %d: IR fell from %.2f to %.2f with more failures", blk, prev, v)
			}
			prev = v
		}
		if blk == 0 {
			rel33 = prev / base
		} else {
			rel120 = prev / base
		}
	}
	if rel120 > rel33 {
		t.Errorf("120-TSV design degraded more (%.2fx) than 33-TSV (%.2fx) at 50%% loss", rel120, rel33)
	}
}

func TestACStudy(t *testing.T) {
	tab, err := runner().ACStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 designs", len(tab.Rows))
	}
	nCols := len(tab.Header)
	for r := 0; r < 3; r++ {
		// Droop grows monotonically toward the DC column.
		prev := 0.0
		for c := 1; c < nCols; c++ {
			v := cell(t, tab, tab.Rows, r, c)
			if v < prev-0.05 {
				t.Errorf("row %d: droop fell between columns %d and %d (%.2f -> %.2f)", r, c-1, c, prev, v)
			}
			prev = v
		}
	}
	// Decapped design never droops more than the undecapped wire-bonded one.
	for c := 1; c < nCols-1; c++ {
		wb := cell(t, tab, tab.Rows, 1, c)
		de := cell(t, tab, tab.Rows, 2, c)
		if de > wb+0.01 {
			t.Errorf("column %d: decaps increased droop (%.2f vs %.2f)", c, de, wb)
		}
	}
}

func TestPolicyStudyAll(t *testing.T) {
	if testing.Short() {
		t.Skip("four benchmark LUTs + simulations are slow")
	}
	tab, err := runner().PolicyStudyAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 benchmarks", len(tab.Rows))
	}
	for r := 0; r < 4; r++ {
		std := cell(t, tab, tab.Rows, r, 3)
		fcfs := cell(t, tab, tab.Rows, r, 4)
		distr := cell(t, tab, tab.Rows, r, 5)
		if !(std < fcfs && fcfs <= distr+1e-9) {
			t.Errorf("row %d: policy BW ordering violated: %.3f / %.3f / %.3f", r, std, fcfs, distr)
		}
	}
}
