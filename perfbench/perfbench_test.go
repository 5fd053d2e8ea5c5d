package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"pdn3d/internal/query"
)

// smokeConfig is a coarse-pitch, short configuration: same code paths as
// the benchmark, seconds instead of minutes, no golden check (the goldens
// are full fidelity).
func smokeConfig(trace bool) *config {
	return &config{
		seed:      3,
		trace:     trace,
		deadline:  time.Now().Add(time.Second),
		pitch:     0.7,
		finePitch: 0.35,
		requests:  300,
		setups:    2,
		states:    2,
		minServe:  40,
	}
}

func TestSameSeedSameServeStream(t *testing.T) {
	warm1, reqs1, err := serveStream(7, 400)
	if err != nil {
		t.Fatal(err)
	}
	warm2, reqs2, err := serveStream(7, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm1, warm2) || !reflect.DeepEqual(reqs1, reqs2) {
		t.Fatal("seed 7 gave two different serve-mixed streams")
	}
	if _, other, _ := serveStream(8, 400); reflect.DeepEqual(reqs1, other) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}

	// The stated mix: per ten requests 7 repeats, 2 new, 1 batch of 8
	// holding exactly one new query; a repeat only names a query already
	// introduced.
	seen := map[string]bool{}
	for _, q := range warm1 {
		seen[queryKey(q)] = true
	}
	var repeats, fresh, batches int
	for _, r := range reqs1 {
		if r.Batch {
			batches++
			if len(r.Queries) != serveBatchSize {
				t.Fatalf("batch of %d queries", len(r.Queries))
			}
		}
		newInReq := 0
		for _, q := range r.Queries {
			if !seen[queryKey(q)] {
				newInReq++
				seen[queryKey(q)] = true
			}
		}
		switch {
		case r.Batch && newInReq != serveBatchNew:
			t.Fatalf("batch introduces %d new queries, want %d", newInReq, serveBatchNew)
		case !r.Batch && newInReq == 1:
			fresh++
		case !r.Batch:
			repeats++
		}
	}
	if repeats != 280 || fresh != 80 || batches != 40 {
		t.Fatalf("mix: %d repeats, %d new, %d batches per 400 requests; want 280, 80, 40", repeats, fresh, batches)
	}
}

func TestSameSeedSameFineStates(t *testing.T) {
	a, b := fineStates(7, 4), fineStates(7, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 gave %v then %v", a, b)
	}
	distinct := map[string]bool{}
	for _, s := range a {
		distinct[countsString(s)] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("states not distinct: %v", a)
	}
	if reflect.DeepEqual(a, fineStates(8, 4)) {
		t.Fatal("seeds 7 and 8 gave the same states")
	}
}

// TestStagesAddUpToWall runs every workload traced on the smoke
// configuration and checks that its stage rows plus unattributed_s are its
// wall time, that nothing is counted twice (unattributed_s is not
// negative), and that the stages leave little unexplained.
func TestStagesAddUpToWall(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			c := smokeConfig(true)
			o := &outcome{}
			if err := workloads[name](c, o); err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", o.failed, o.attempted, o.problems)
			}
			m, _ := o.metrics(true)
			var staged float64
			for k, v := range m {
				if strings.HasPrefix(k, "stage.") {
					staged += v
				}
			}
			wall, un := m["traced.wall_s"], m["unattributed_s"]
			if math.Abs(staged+un-wall) > 1e-9*wall {
				t.Errorf("stages %.6f + unattributed %.6f != wall %.6f", staged, un, wall)
			}
			if un < -1e-6 || un > 0.2*wall {
				t.Errorf("unattributed %.6f s of wall %.6f s", un, wall)
			}
		})
	}
}

func TestTimedRunsAnswerCorrectly(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			c := smokeConfig(false)
			o := &outcome{}
			if err := workloads[name](c, o); err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", o.failed, o.attempted, o.problems)
			}
			m, _ := o.metrics(false)
			for _, d := range endToEnd {
				if !(m[d.name] > 0) {
					t.Errorf("%s = %v, want > 0", d.name, m[d.name])
				}
			}
		})
	}
}

func TestVerifierFlagsPerturbedAnswer(t *testing.T) {
	k := &checker{}
	want, err := k.golden("lut-policy/policies")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.text("lut-policy/policies", want); err != nil {
		t.Fatalf("golden rejects itself: %v", err)
	}
	// standard/fcfs runtime: 1 % off fails, 0.1 % off is inside the rule.
	f := strings.Fields(strings.Split(want, "\n")[1])
	v, _ := goldenNumber(f[1])
	for _, tc := range []struct {
		scale float64
		ok    bool
	}{{1.01, false}, {1.001, true}} {
		got := strings.Replace(want, f[1], fmt.Sprintf("%.3f", v*tc.scale), 1)
		if err := k.text("lut-policy/policies", got); (err == nil) != tc.ok {
			t.Errorf("runtime x%g: error %v, want ok=%v", tc.scale, err, tc.ok)
		}
	}

	states, err := k.golden("fine-mesh/states")
	if err != nil {
		t.Fatal(err)
	}
	line := strings.Fields(strings.Split(states, "\n")[0])
	line[2] = "99.0000"
	if err := k.line("fine-mesh/states", 2, strings.Join(line, " ")); err == nil {
		t.Error("perturbed fine-mesh answer accepted")
	}

	s := &serveRun{c: &config{}, bodies: map[string][]byte{}}
	r := streamReq{Queries: []query.Query{{Bench: "ddr3-off", State: "0-0-0-2", IO: 1}}}
	if err := s.verify(r, 200, []byte(`{"max_ir_mv":30.07}`+"\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.verify(r, 200, []byte(`{"max_ir_mv":30.08}`+"\n")); err == nil {
		t.Error("repeated query with a different body accepted")
	}
	if err := s.verify(r, 500, []byte(`{"error":"x"}`)); err == nil {
		t.Error("non-200 answer accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the reported metric
// sets in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit string
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer())
}
