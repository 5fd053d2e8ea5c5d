package memctrl

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pdn3d/internal/lut"
	"pdn3d/internal/memstate"
)

// tinyLUT builds a table via FromPoints covering per-die counts up to
// maxPerDie for a 2-die stack at IO levels {0.5, 1.0}, with every stored
// drop equal to irV.
func tinyLUT(t *testing.T, maxPerDie int, irV float64) *lut.Table {
	t.Helper()
	var pts []lut.Point
	for a := 0; a <= maxPerDie; a++ {
		for b := 0; b <= maxPerDie; b++ {
			for _, io := range []float64{0.5, 1.0} {
				pts = append(pts, lut.Point{Counts: []int{a, b}, IO: io, MaxIR: irV})
			}
		}
	}
	table, err := lut.FromPoints(2, maxPerDie, []float64{0.5, 1.0}, pts)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// An undersized LUT must not silently throttle: uncovered states are
// still treated conservatively (blocked / not recorded) but the misses
// are surfaced on the result.
func TestLUTMissesAreCounted(t *testing.T) {
	table := tinyLUT(t, 1, 0.010)
	cfg := DefaultConfig(PolicyIRAware, FCFS, table, 0.030)
	cfg.Dies = 2
	s := newSim(cfg, nil, nil)
	copy(s.openPerDie, []int{2, 0}) // two open banks: outside the maxPerDie=1 grid

	s.observeIR()
	if s.res.LUTMisses != 1 {
		t.Fatalf("observeIR on uncovered state: LUTMisses = %d, want 1", s.res.LUTMisses)
	}
	if s.res.MaxIR != 0 {
		t.Errorf("uncovered state leaked an IR value: %g", s.res.MaxIR)
	}

	// mayActivate's IR check (one open bank plus the new activation = two,
	// outside the maxPerDie=1 grid) is blocked AND counted.
	copy(s.openPerDie, []int{1, 0})
	blockedBefore := s.res.Blocked
	if s.mayActivate(0) {
		t.Error("activation into an uncovered state should be blocked")
	}
	if s.res.Blocked != blockedBefore+1 {
		t.Errorf("Blocked = %d, want %d", s.res.Blocked, blockedBefore+1)
	}
	if s.res.LUTMisses != 2 {
		t.Errorf("LUTMisses = %d, want 2", s.res.LUTMisses)
	}

	// A covered, under-limit state neither blocks nor counts a miss.
	copy(s.openPerDie, []int{0, 0})
	if !s.mayActivate(1) {
		t.Error("covered under-limit activation should pass")
	}
	if s.res.LUTMisses != 2 {
		t.Errorf("covered lookup bumped LUTMisses to %d", s.res.LUTMisses)
	}

	// Asking again about the uncovered states answers from the run's
	// cache and counts again.
	copy(s.openPerDie, []int{2, 0})
	s.observeIR()
	copy(s.openPerDie, []int{1, 0})
	if s.mayActivate(0) {
		t.Error("a cached verdict let an activation into an uncovered state through")
	}
	if s.res.Blocked != blockedBefore+2 || s.res.LUTMisses != 4 {
		t.Errorf("repeated look-ups: Blocked = %d, LUTMisses = %d, want %d and 4",
			s.res.Blocked, s.res.LUTMisses, blockedBefore+2)
	}
}

func TestTimingValidate(t *testing.T) {
	if err := DDR3_1600().Validate(); err != nil {
		t.Fatalf("default timing invalid: %v", err)
	}
	bad := DDR3_1600()
	bad.TCL = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero tCL: want error")
	}
	bad2 := DDR3_1600()
	bad2.TRAS = 5
	if err := bad2.Validate(); err == nil {
		t.Error("tRAS < tRCD: want error")
	}
}

func TestGenerateWorkload(t *testing.T) {
	cfg := DefaultWorkload(4, 8)
	cfg.Requests = 5000
	reqs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 5000 {
		t.Fatalf("generated %d requests", len(reqs))
	}
	hits := 0
	for i, r := range reqs {
		if r.Die < 0 || r.Die >= 4 || r.Bank < 0 || r.Bank >= 8 || r.Row < 0 || r.Row >= cfg.Rows {
			t.Fatalf("request %d out of range: %+v", i, r)
		}
		if r.Arrival != int64(i*cfg.InterArrival) {
			t.Fatalf("request %d arrival %d, want %d", i, r.Arrival, i*cfg.InterArrival)
		}
		if i > 0 && r.Die == reqs[i-1].Die && r.Bank == reqs[i-1].Bank && r.Row == reqs[i-1].Row {
			hits++
		}
	}
	rate := float64(hits) / float64(len(reqs)-1)
	if math.Abs(rate-0.8) > 0.03 {
		t.Errorf("row-streak rate = %.3f, want ~0.80", rate)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(DefaultWorkload(4, 8))
	b, _ := Generate(DefaultWorkload(4, 8))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical streams")
		}
	}
	cfg := DefaultWorkload(4, 8)
	cfg.Seed = 2
	c, _ := Generate(cfg)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	for _, mut := range []func(*WorkloadConfig){
		func(c *WorkloadConfig) { c.Requests = 0 },
		func(c *WorkloadConfig) { c.InterArrival = 0 },
		func(c *WorkloadConfig) { c.RowHitRate = 1.0 },
		func(c *WorkloadConfig) { c.Dies = 0 },
	} {
		cfg := DefaultWorkload(4, 8)
		mut(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %+v: want error", cfg)
		}
	}
}

func stdConfig() Config {
	return DefaultConfig(PolicyStandard, FCFS, nil, 0)
}

func TestSimulateStandardCompletes(t *testing.T) {
	cfg := stdConfig()
	wl := DefaultWorkload(cfg.Dies, cfg.BanksPerDie)
	wl.Requests = 2000
	reqs, err := Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowHits+res.RowMisses < len(reqs) {
		t.Errorf("hits %d + misses %d < %d requests", res.RowHits, res.RowMisses, len(reqs))
	}
	for i, r := range reqs {
		if r.Done <= r.Arrival {
			t.Fatalf("request %d done %d not after arrival %d", i, r.Done, r.Arrival)
		}
	}
	if res.Bandwidth <= 0 || res.Bandwidth > 0.25 {
		t.Errorf("bandwidth %.3f outside (0, bus limit 0.25]", res.Bandwidth)
	}
	if res.MaxOpenBanks > cfg.Dies*memstate.MaxInterleavedBanks {
		t.Errorf("open banks %d exceed interleave cap", res.MaxOpenBanks)
	}
	t.Logf("standard: %.1f us, BW %.3f, ACTs %d, open<=%d, blocked %d",
		res.RuntimeUS, res.Bandwidth, res.Activations, res.MaxOpenBanks, res.Blocked)
}

func TestStandardRespectsTFAW(t *testing.T) {
	// All requests to distinct banks, same arrival burst: activations
	// must be spaced by tRRD and capped 4-per-tFAW.
	cfg := stdConfig()
	var reqs []Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, Request{ID: i, Arrival: 0, Die: i % 4, Bank: (i * 3) % 8, Row: i})
	}
	if _, err := Simulate(cfg, reqs); err != nil {
		t.Fatal(err)
	}
	// Reconstruct ACT times from the sim: re-run with instrumentation via
	// the result counters instead; here just assert it completed — the
	// detailed window check is in the whitebox test below.
}

func TestTFAWWindowWhitebox(t *testing.T) {
	s := &sim{cfg: stdConfig()}
	s.banks = make([][]bank, 4)
	for d := range s.banks {
		s.banks[d] = make([]bank, 8)
	}
	s.openPerDie = make([]int, 4)
	s.lastACT = -100
	// Four activates inside the window block the fifth.
	s.actTimes = []int64{10, 20, 28, 36}
	s.now = 40
	if s.mayActivate(0) {
		t.Error("fifth ACT inside tFAW window must be blocked")
	}
	s.now = 44 // window (12,44]: ACT@10 expired; tRRD 8 from 36 also met
	s.lastACT = 36
	if !s.mayActivate(0) {
		t.Error("ACT should be allowed once the window drains and tRRD passes")
	}
}

func TestInterleaveCapWhitebox(t *testing.T) {
	// The standard policy treats the stack as one DDR3 device: two open
	// banks anywhere exhaust the interleave budget.
	s := &sim{cfg: stdConfig()}
	s.openPerDie = []int{2, 0, 0, 0}
	s.lastACT = -100
	if s.mayActivate(0) {
		t.Error("third bank on the same die must be blocked")
	}
	if s.mayActivate(1) {
		t.Error("standard policy must block other dies too (stack-wide cap)")
	}
	s.openPerDie = []int{1, 0, 0, 0}
	if !s.mayActivate(1) {
		t.Error("second bank within the stack-wide budget should be allowed")
	}
}

func TestPerDieIO(t *testing.T) {
	// Active dies split the bus evenly; a single open bank already
	// sustains the full stream (tCCD = burst length).
	cases := []struct {
		counts []int
		want   float64
	}{
		{[]int{0, 0, 0, 2}, 1.0},
		{[]int{0, 0, 0, 1}, 1.0},
		{[]int{0, 0, 2, 2}, 0.5},
		{[]int{2, 2, 2, 2}, 0.25},
		{[]int{0, 0, 1, 1}, 0.5},
		{[]int{0, 0, 0, 0}, 0},
	}
	for _, c := range cases {
		if got := perDieIO(c.counts); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("perDieIO(%v) = %g, want %g", c.counts, got, c.want)
		}
	}
}

func TestPerDieIOBounded(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		counts := []int{int(a % 3), int(b % 3), int(c % 3), int(d % 3)}
		io := perDieIO(counts)
		return io >= 0 && io <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimulateValidation(t *testing.T) {
	cfg := stdConfig()
	if _, err := Simulate(cfg, nil); err == nil {
		t.Error("empty stream: want error")
	}
	bad := []Request{{Die: 9, Bank: 0}}
	if _, err := Simulate(cfg, bad); err == nil {
		t.Error("out-of-range die: want error")
	}
	irCfg := DefaultConfig(PolicyIRAware, DistR, nil, 0.024)
	if _, err := Simulate(irCfg, []Request{{}}); err == nil {
		t.Error("IR-aware without LUT: want error")
	}
}

// Only the two policies and the two schedulers defined here run: any
// other value is an error from Validate and Simulate, not a panic or a
// third scheduling order. A LUT must cover the stack's dies under either
// policy.
func TestSimulateRejectsUndefinedConfig(t *testing.T) {
	reqs := []Request{{ID: 0, Arrival: 0, Die: 0, Bank: 0, Row: 1}}
	table := tinyLUT(t, 2, 0.010)
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"policy", DefaultConfig(IRPolicy(2), FCFS, nil, 0), "unknown IR policy 2"},
		{"policy-with-lut", DefaultConfig(IRPolicy(2), FCFS, syntheticLUT(t, 4, 2), 0.024), "unknown IR policy 2"},
		{"scheduler", DefaultConfig(PolicyStandard, Scheduler(2), nil, 0), "unknown scheduler 2"},
		{"lut-dies", DefaultConfig(PolicyStandard, FCFS, table, 0), "LUT covers 2 dies, stack has 4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate error %v, want one naming %q", err, tc.want)
			}
			if _, err := Simulate(tc.cfg, slices.Clone(reqs)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Simulate error %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// A channel map that sends a (die, bank) off the channel range is an
// error naming the pair, not a silent fallback onto channel 0.
func TestSimulateRejectsBadChannelMap(t *testing.T) {
	reqs := []Request{{ID: 0, Arrival: 0, Die: 0, Bank: 0, Row: 1}}
	for _, ch := range []int{4, -1} {
		cfg := stdConfig()
		cfg.Channels = 4
		cfg.ChannelOf = func(die, bank int) int {
			if die == 2 && bank == 5 {
				return ch
			}
			return bank / 2
		}
		_, err := Simulate(cfg, slices.Clone(reqs))
		want := fmt.Sprintf("die 2 bank 5 on channel %d outside [0,4)", ch)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("channel %d: Simulate error %v, want one naming %q", ch, err, want)
		}
		if err := cfg.Validate(); err == nil {
			t.Errorf("channel %d: Validate accepted the map", ch)
		}
	}
	cfg := stdConfig()
	cfg.Channels = 4
	cfg.ChannelOf = func(_, bank int) int { return bank / 2 }
	if _, err := Simulate(cfg, slices.Clone(reqs)); err != nil {
		t.Errorf("in-range map: %v", err)
	}
}

func TestRowHitsDominateWithLocality(t *testing.T) {
	cfg := stdConfig()
	wl := DefaultWorkload(cfg.Dies, cfg.BanksPerDie)
	wl.Requests = 3000
	reqs, _ := Generate(wl)
	res, err := Simulate(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	hitRate := float64(res.RowHits) / float64(res.RowHits+res.RowMisses)
	if hitRate < 0.5 {
		t.Errorf("row hit rate %.2f too low for an 80%%-locality stream", hitRate)
	}
	t.Logf("observed row hit rate %.2f", hitRate)
}

func TestStringers(t *testing.T) {
	if PolicyStandard.String() != "Standard" || PolicyIRAware.String() != "IR-aware" {
		t.Error("policy strings")
	}
	if FCFS.String() != "FCFS" || DistR.String() != "DistR" {
		t.Error("scheduler strings")
	}
}

// BenchmarkSimulate times Table 6's three controller runs, each on the
// default 10,000-read workload over the synthetic 4×2 LUT.
func BenchmarkSimulate(b *testing.B) {
	table := syntheticLUT(b, 4, 2)
	for _, run := range table6Runs(table, 0.016) {
		cfg := run.cfg
		b.Run(run.name, func(b *testing.B) {
			reqs, err := Generate(DefaultWorkload(cfg.Dies, cfg.BanksPerDie))
			if err != nil {
				b.Fatal(err)
			}
			work := make([]Request, len(reqs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, reqs)
				if _, err := Simulate(cfg, work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
