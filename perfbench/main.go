// Command perfbench is the pdn3d benchmark: it runs one named workload
// in-process against the repository's own packages, checks every answer,
// and prints the end-to-end metrics (timed run) or the per-layer metrics
// (traced run) as the last line of its standard output.
//
// Usage, from the checkout root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload lut-policy|design-sweep|serve-mixed|fine-mesh \
//	          --seed N --seconds S --trace 0|1
//	perfbench -write-golden perfbench/golden   regenerate the expected answers
//
// The line before the result is a provenance record: host fingerprint,
// seed, and each metric's sample count, median and quartiles. README.md
// in this directory documents the workloads and what every metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the timed run's metrics, reported for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"rps", "1/s"},
	{"p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerDefs are the traced run's per-layer metrics. A workload that does
// not exercise or expose a layer reports 0 for it. The stage.* rows and
// unattributed_s partition the traced repetition's wall time.
var layerDefs = []metricDef{
	{"rmesh.topology_ms", "ms"},
	{"rmesh.reorder_ms", "ms"},
	{"rmesh.newmodel_ms", "ms"},
	{"solve.setup_ms", "ms"},
	{"solve.solve_ms", "ms"},
	{"solve.solve_p90_ms", "ms"},
	{"solve.iterations", "count"},
	{"solve.calls", "count"},
	{"irdrop.stamp_ms", "ms"},
	{"irdrop.post_ms", "ms"},
	{"lut.build_s", "s"},
	{"lut.points", "count"},
	{"par.utilization", "ratio"},
	{"memctrl.generate_ms", "ms"},
	{"memctrl.simulate_ms", "ms"},
	{"exp.fig4_s", "s"},
	{"exp.metal_s", "s"},
	{"exp.mounting_s", "s"},
	{"exp.fig5_s", "s"},
	{"exp.table2_s", "s"},
	{"exp.table3_s", "s"},
	{"exp.table4_s", "s"},
	{"exp.table7_s", "s"},
	{"serve.hit_ms", "ms"},
	{"serve.miss_ms", "ms"},
	{"serve.batch_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.mesh_ms", "ms"},
	{"serve.stamp_ms", "ms"},
	{"serve.solve_ms", "ms"},
	{"serve.serialize_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.flight_shared_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"stage.rmesh_s", "s"},
	{"stage.solve_setup_s", "s"},
	{"stage.stamp_s", "s"},
	{"stage.solve_s", "s"},
	{"stage.post_s", "s"},
	{"stage.par_idle_s", "s"},
	{"stage.memctrl_s", "s"},
	{"stage.exp_s", "s"},
	{"stage.queue_s", "s"},
	{"stage.server_other_s", "s"},
	{"stage.batch_s", "s"},
	{"stage.http_s", "s"},
	{"stage.bench_s", "s"},
	{"unattributed_s", "s"},
}

// perLayer is the full traced-run metric list: the layer rows, then the
// traced run's own end-to-end numbers under "traced.", so the cost of
// tracing shows against the timed run's.
func perLayer() []metricDef {
	out := append([]metricDef(nil), layerDefs...)
	for _, d := range endToEnd {
		out = append(out, metricDef{"traced." + d.name, d.unit})
	}
	return out
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*config, *outcome) error{
	"lut-policy":   lutPolicy,
	"design-sweep": designSweep,
	"serve-mixed":  serveMixed,
	"fine-mesh":    fineMesh,
}

// config is one run's parameters. The benchmark's own settings come from
// benchConfig; tests use coarser smoke settings.
type config struct {
	seed     int64
	trace    bool
	deadline time.Time
	check    *checker

	pitch     float64 // mesh pitch override (mm) for every design but fine-mesh; 0 = full fidelity
	finePitch float64 // fine-mesh pitch (mm)
	requests  int     // memory-controller requests per policy run
	setups    int     // cold set-ups timed per run (fine-mesh times one per repetition)
	states    int     // fine-mesh memory states per repetition
	minServe  int     // serve-mixed sends at least this many requests
}

// benchFinePitch is the fine-mesh pitch (mm): 76,048 nodes on ddr3-off.
const benchFinePitch = 0.07

// benchConfig is the benchmark proper: full fidelity, golden-checked.
func benchConfig(seed int64, budget time.Duration, trace bool) *config {
	return &config{
		seed:      seed,
		trace:     trace,
		deadline:  time.Now().Add(budget),
		check:     &checker{},
		finePitch: benchFinePitch,
		requests:  10000,
		setups:    5,
		states:    4,
		minServe:  1000,
	}
}

// outcome accumulates one run's samples and verification results.
type outcome struct {
	attempted, failed int
	problems          []string

	setup    []float64 // seconds per cold set-up
	walls    []float64 // seconds per repetition (serve-mixed: the one closed loop)
	lat      []float64 // milliseconds per operation
	ops      int       // operations completed
	measured float64   // seconds the operations took
	layers   []map[string]float64
}

// op books one attempted operation, failed when err is non-nil.
func (o *outcome) op(err error) {
	o.attempted++
	if err == nil {
		return
	}
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, err.Error())
	}
}

// repetition is what one cold repetition of a batch workload reports.
type repetition struct {
	wall   float64            // seconds to the repetition's full answer
	layers map[string]float64 // traced runs only
}

// repeat runs rep once, then again while another repetition is expected
// to finish before the deadline; each repetition is one operation. A
// repetition that cannot produce an answer at all counts as a failed
// operation and ends the run.
func (c *config) repeat(o *outcome, rep func() (repetition, error)) {
	for len(o.walls) == 0 || time.Until(c.deadline).Seconds() > median(o.walls) {
		r, err := rep()
		if err != nil {
			o.op(err)
			return
		}
		o.walls = append(o.walls, r.wall)
		o.measured += r.wall
		o.lat = append(o.lat, r.wall*1000)
		o.ops++
		o.layers = append(o.layers, r.layers)
	}
}

// closeStages sets unattributed_s so the stage.* rows of L add up to wall.
func closeStages(L map[string]float64, wall float64) {
	var staged float64
	for k, v := range L {
		if strings.HasPrefix(k, "stage.") {
			staged += v
		}
	}
	L["unattributed_s"] = wall - staged
}

// sampleStats is the provenance of one metric: how many samples it was
// taken from, their median, and their quartiles.
type sampleStats struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func statsOf(xs []float64) sampleStats {
	q1, q3 := quartiles(xs)
	return sampleStats{N: len(xs), Median: median(xs), Q1: q1, Q3: q3}
}

// endToEndValues derives the end-to-end metrics from a run's samples,
// with the samples each was taken from.
func (o *outcome) endToEndValues() (map[string]float64, map[string]sampleStats) {
	var rps float64
	if o.measured > 0 {
		rps = float64(o.ops) / o.measured
	}
	v := map[string]float64{
		"setup_s":     median(o.setup),
		"wall_s":      median(o.walls),
		"rps":         rps,
		"p99_ms":      percentile(o.lat, 0.99),
		"peak_rss_mb": peakRSSMB(),
	}
	prov := map[string]sampleStats{
		"setup_s": statsOf(o.setup),
		"wall_s":  statsOf(o.walls),
		"rps":     {N: o.ops, Median: rps, Q1: rps, Q3: rps},
		"p99_ms":  {N: len(o.lat), Median: v["p99_ms"], Q1: v["p99_ms"], Q3: v["p99_ms"]},
	}
	return v, prov
}

// metrics assembles the reported metric set: the end-to-end metrics for a
// timed run; for a traced run, the layer rows of the repetition whose wall
// time is the median, plus the traced end-to-end numbers.
func (o *outcome) metrics(trace bool) (map[string]float64, map[string]sampleStats) {
	e2e, prov := o.endToEndValues()
	if !trace {
		return e2e, prov
	}
	out := map[string]float64{}
	med := median(o.walls)
	for i, w := range o.walls {
		if w == med {
			for k, v := range o.layers[i] {
				out[k] = v
			}
			break
		}
	}
	tp := map[string]sampleStats{}
	for _, d := range endToEnd {
		out["traced."+d.name] = e2e[d.name]
		if p, ok := prov[d.name]; ok {
			tp["traced."+d.name] = p
		}
	}
	return out, tp
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostFingerprint identifies the machine a result was measured on.
func hostFingerprint() map[string]interface{} {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]interface{}{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: lut-policy, design-sweep, serve-mixed, fine-mesh")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Float64("seconds", 20, "measuring time per run in seconds")
	trace := flag.Int("trace", 0, "1 for a traced run (per-layer metrics), 0 for a timed run")
	writeGolden := flag.String("write-golden", "", "regenerate the golden answers into this directory and exit")
	flag.Parse()

	if *writeGolden != "" {
		if err := writeGoldens(*writeGolden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *secs <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	c := benchConfig(*seed, time.Duration(*secs*float64(time.Second)), *trace == 1)
	o := &outcome{}
	if err := run(c, o); err != nil {
		o.op(fmt.Errorf("%s: %w", *workload, err))
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	values, prov := o.metrics(c.trace)
	defs := endToEnd
	if c.trace {
		defs = perLayer()
	}
	res := result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	provLine, err1 := json.Marshal(map[string]interface{}{
		"host": hostFingerprint(), "workload": *workload, "seed": *seed, "trace": *trace, "samples": prov,
	})
	resLine, err2 := json.Marshal(res)
	if err := errors.Join(err1, err2); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(provLine))
	fmt.Println(string(resLine))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
