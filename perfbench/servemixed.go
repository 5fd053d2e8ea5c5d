package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/irdrop"
	"pdn3d/internal/obs"
	"pdn3d/internal/par"
	"pdn3d/internal/query"
	"pdn3d/internal/serve"
)

// The serve-mixed traffic: two closed-loop clients (one per CPU of the
// reference host) replay one seeded request stream over the four paper
// designs. The stream is built in blocks of ten requests, shuffled per
// block: seven /v1/analyze repeats of a query sent before (result-cache
// hits), two /v1/analyze queries new to the stream (a new state and I/O
// activity on a design whose analyzer is already cached, so a solve), and
// one /v1/batch of eight queries (seven repeats, one new). New queries
// take the designs in turn.
const (
	serveClients     = 2
	serveBlock       = "rrrrrrrnnb" // r: repeat, n: new, b: batch
	serveBatchSize   = 8
	serveBatchNew    = 1
	serveStreamLen   = 20000
	serveCrossChecks = 6
)

var serveDesigns = []string{"ddr3-off", "ddr3-on", "wideio", "hmc"}

// streamReq is one request of the stream: one query for /v1/analyze, or
// a batch.
type streamReq struct {
	Batch   bool
	Queries []query.Query
}

func queryKey(q query.Query) string {
	return q.Bench + "|" + q.State + "|" + strconv.FormatFloat(q.IO, 'g', -1, 64)
}

// serveStream builds the seeded request stream of n requests and the
// warm-up queries (each design's default state) that open the repeat pool.
// The same seed gives the same stream.
func serveStream(seed int64, n int) (warm []query.Query, reqs []streamReq, err error) {
	dies := make([]int, len(serveDesigns))
	for i, name := range serveDesigns {
		b, err := bench3d.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		dies[i] = b.Spec.NumDRAM
		warm = append(warm, query.Query{Bench: name, State: countsString(b.DefaultCounts), IO: b.DefaultIO})
	}
	rng := rand.New(rand.NewSource(seed))
	pool := append([]query.Query(nil), warm...)
	seen := map[string]bool{}
	for _, q := range warm {
		seen[queryKey(q)] = true
	}
	fresh := 0
	newQuery := func() query.Query {
		d := fresh % len(serveDesigns)
		fresh++
		for {
			counts := make([]int, dies[d])
			active := 0
			for i := range counts {
				counts[i] = rng.Intn(3)
				active += counts[i]
			}
			q := query.Query{Bench: serveDesigns[d], State: countsString(counts), IO: float64(1+rng.Intn(20)) / 20}
			if active > 0 && !seen[queryKey(q)] {
				seen[queryKey(q)] = true
				pool = append(pool, q)
				return q
			}
		}
	}
	repeat := func() query.Query { return pool[rng.Intn(len(pool))] }
	for len(reqs) < n {
		block := []byte(serveBlock)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			switch kind {
			case 'r':
				reqs = append(reqs, streamReq{Queries: []query.Query{repeat()}})
			case 'n':
				reqs = append(reqs, streamReq{Queries: []query.Query{newQuery()}})
			case 'b':
				qs := make([]query.Query, 0, serveBatchSize)
				for len(qs) < serveBatchSize-serveBatchNew {
					qs = append(qs, repeat())
				}
				for len(qs) < serveBatchSize {
					qs = append(qs, newQuery())
				}
				rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
				reqs = append(reqs, streamReq{Batch: true, Queries: qs})
			}
		}
	}
	return warm, reqs[:n], nil
}

// served is one completed request as the client saw it.
type served struct {
	batch   bool
	status  int
	latency float64            // ms, send to last body byte
	fetch   float64            // ms spent fetching the request's trace (traced runs)
	trace   *obs.TraceSnapshot // traced runs
	err     error
}

// serveRun is one server under test plus its clients' shared state.
type serveRun struct {
	c      *config
	url    string
	client *http.Client

	mu     sync.Mutex
	bodies map[string][]byte // first answer body per query key
}

// post sends one stream request, verifies its answer, and (traced runs)
// fetches its trace from /debug/requests right away, while it is still
// retained.
func (s *serveRun) post(r streamReq) served {
	path := "/v1/analyze"
	var payload interface{} = r.Queries[0]
	if r.Batch {
		path, payload = "/v1/batch", serve.BatchRequest{Queries: r.Queries}
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return served{batch: r.Batch, err: err}
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return served{batch: r.Batch, latency: since(t0) * 1000, err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := served{batch: r.Batch, status: resp.StatusCode, latency: since(t0) * 1000}
	if err != nil {
		out.err = err
		return out
	}
	out.err = s.verify(r, resp.StatusCode, data)
	if s.c.trace {
		tf := time.Now()
		out.trace, err = s.fetchTrace(resp.Header.Get("X-Trace-Id"))
		out.fetch = since(tf) * 1000
		out.err = errors.Join(out.err, err)
	}
	return out
}

// verify requires a 200 and, for every query answered before, a
// byte-identical answer body.
func (s *serveRun) verify(r streamReq, status int, data []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("serve-mixed: status %d: %s", status, bytes.TrimSpace(data))
	}
	answers := [][]byte{bytes.TrimSpace(data)}
	if r.Batch {
		var br serve.BatchResponse
		if err := json.Unmarshal(data, &br); err != nil {
			return fmt.Errorf("serve-mixed: batch body: %w", err)
		}
		if br.Failed != 0 || len(br.Results) != len(r.Queries) {
			return fmt.Errorf("serve-mixed: batch of %d: %d results, %d failed", len(r.Queries), len(br.Results), br.Failed)
		}
		answers = answers[:0]
		for _, it := range br.Results {
			answers = append(answers, it.Result)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range r.Queries {
		k := queryKey(q)
		if first, ok := s.bodies[k]; !ok {
			s.bodies[k] = append([]byte(nil), answers[i]...)
		} else if !bytes.Equal(first, answers[i]) {
			return fmt.Errorf("serve-mixed: repeated query %s answered %s, first %s", k, answers[i], first)
		}
	}
	return nil
}

func (s *serveRun) fetchTrace(id string) (*obs.TraceSnapshot, error) {
	var ts obs.TraceSnapshot
	if err := s.getJSON("/debug/requests?id="+id, &ts); err != nil {
		return nil, fmt.Errorf("serve-mixed: trace %s: %w", id, err)
	}
	return &ts, nil
}

func (s *serveRun) getJSON(path string, v interface{}) error {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveMixed drives an in-process pdnserve (serve.New, default Config)
// behind a loopback server with the serve-mixed stream. Set-up is
// serve.New plus one warm-up request per design, timed several times; the
// last server then takes the closed loop, which runs until the deadline
// and at least c.minServe requests. A seeded sample of answers is then
// cross-checked against direct irdrop analyses.
func serveMixed(c *config, o *outcome) error {
	warm, reqs, err := serveStream(c.seed, serveStreamLen)
	if err != nil {
		return err
	}
	s := &serveRun{
		c:      c,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		bodies: map[string][]byte{},
	}
	defer s.client.CloseIdleConnections()
	var ts *httptest.Server
	var warmTraces []served
	for i := 0; i < c.setups; i++ {
		if ts != nil {
			ts.Close()
		}
		s.bodies = map[string][]byte{}
		warmTraces = warmTraces[:0]
		t0 := time.Now()
		ts = httptest.NewServer(serve.New(serve.Config{MeshPitch: c.pitch}))
		s.url = ts.URL
		for _, q := range warm {
			r := s.post(streamReq{Queries: []query.Query{q}})
			if r.err != nil {
				ts.Close()
				return r.err
			}
			warmTraces = append(warmTraces, r)
		}
		o.setup = append(o.setup, since(t0))
	}
	defer ts.Close()

	var before obs.Snapshot
	if c.trace {
		if err := s.getJSON("/metrics", &before); err != nil {
			return err
		}
	}
	var next atomic.Int64
	results := make([][]served, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for cl := 0; cl < serveClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || (i >= c.minServe && time.Now().After(c.deadline)) {
					return
				}
				results[cl] = append(results[cl], s.post(reqs[i]))
			}
		}(cl)
	}
	wg.Wait()
	loop := since(start)

	var all []served
	for _, rs := range results {
		all = append(all, rs...)
	}
	for _, r := range all {
		o.op(r.err)
		lat := r.latency
		if r.err != nil {
			lat = math.Inf(1) // a failed request misses every latency limit
		}
		o.lat = append(o.lat, lat)
	}
	for i, l := range o.lat {
		if math.IsInf(l, 1) {
			o.lat[i] = loop * 1000
		}
	}
	o.walls = append(o.walls, loop)
	o.ops += len(all)
	o.measured += loop

	for _, err := range crossCheck(c, s.bodies) {
		o.op(err)
	}
	if !c.trace {
		o.layers = append(o.layers, nil)
		return nil
	}
	var after obs.Snapshot
	if err := s.getJSON("/metrics", &after); err != nil {
		return err
	}
	o.layers = append(o.layers, serveLayers(all, warmTraces, before, after, loop))
	return nil
}

// serveLayers derives the traced serve-mixed rows: client latency by
// cache outcome, span durations from /debug/requests, cache and flight
// ratios from /metrics counter deltas over the loop, and the loop's
// stage partition (client time per stage over the client count).
func serveLayers(all, warm []served, before, after obs.Snapshot, loop float64) map[string]float64 {
	L := map[string]float64{}
	registryRows(L, after)
	var hit, miss, batch, queue, mesh, stamp, solve, serialize, httpMS, iters []float64
	var stQueue, stStamp, stSolve, stOther, stBatch, stHTTP, stBench float64
	rejected := 0
	for _, r := range warm {
		for _, sp := range r.trace.Spans {
			if sp.Name == "mesh" {
				mesh = append(mesh, sp.DurMS)
			}
		}
	}
	for _, r := range all {
		if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
			rejected++
		}
		stBench += r.fetch
		if r.trace == nil {
			continue
		}
		t := r.trace
		httpMS = append(httpMS, r.latency-t.DurMS)
		stHTTP += r.latency - t.DurMS
		var q, st, so float64
		cacheHit := false
		for _, sp := range t.Spans {
			switch sp.Name {
			case "queue":
				q += sp.DurMS
				queue = append(queue, sp.DurMS)
			case "cache":
				cacheHit = sp.Attrs["outcome"] == "hit"
			case "mesh":
				mesh = append(mesh, sp.DurMS)
			case "stamp":
				st += sp.DurMS
				stamp = append(stamp, sp.DurMS)
			case "solve":
				so += sp.DurMS
				solve = append(solve, sp.DurMS)
				if n, err := strconv.Atoi(sp.Attrs["iterations"]); err == nil {
					iters = append(iters, float64(n))
				}
			case "serialize":
				serialize = append(serialize, sp.DurMS)
			}
		}
		switch {
		case r.batch:
			batch = append(batch, r.latency)
			stQueue += q
			stBatch += t.DurMS - q
		case cacheHit:
			hit = append(hit, r.latency)
		default:
			miss = append(miss, r.latency)
		}
		if !r.batch {
			stQueue += q
			stStamp += st
			stSolve += so
			stOther += t.DurMS - q - st - so
		}
	}
	L["serve.hit_ms"] = median(hit)
	L["serve.miss_ms"] = median(miss)
	L["serve.batch_ms"] = median(batch)
	L["serve.queue_ms"] = percentile(queue, 0.99)
	L["serve.mesh_ms"] = median(mesh)
	L["serve.stamp_ms"] = median(stamp)
	L["serve.solve_ms"] = median(solve)
	L["serve.serialize_ms"] = median(serialize)
	L["serve.http_ms"] = median(httpMS)
	L["serve.rejected"] = float64(rejected)
	L["irdrop.stamp_ms"] = median(stamp)
	L["solve.solve_ms"] = median(solve)
	L["solve.solve_p90_ms"] = percentile(solve, 0.9)
	L["solve.iterations"] = mean(iters)
	L["solve.calls"] = float64(len(solve))
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	if n := delta("serve.cache.hits") + delta("serve.cache.misses"); n > 0 {
		L["serve.cache_hit_ratio"] = delta("serve.cache.hits") / n
	}
	if n := delta("serve.flight.hits") + delta("serve.flight.misses"); n > 0 {
		L["serve.flight_shared_ratio"] = delta("serve.flight.hits") / n
	}
	if stBatch > 0 {
		busy := after.Timers["serve.batch.sweep.busy"].Seconds - before.Timers["serve.batch.sweep.busy"].Seconds
		L["par.utilization"] = busy / (float64(par.Workers(0)) * stBatch / 1000)
	}
	c := float64(serveClients) * 1000
	L["stage.queue_s"] = stQueue / c
	L["stage.stamp_s"] = stStamp / c
	L["stage.solve_s"] = stSolve / c
	L["stage.server_other_s"] = stOther / c
	L["stage.batch_s"] = stBatch / c
	L["stage.http_s"] = stHTTP / c
	L["stage.bench_s"] = stBench / c
	closeStages(L, loop)
	return L
}

// crossCheck re-answers a seeded sample of the served queries with a
// direct irdrop analysis and compares max and per-die IR drops under the
// golden rule. It returns one result per checked query.
func crossCheck(c *config, bodies map[string][]byte) []error {
	keys := make([]string, 0, len(bodies))
	for k := range bodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rng := rand.New(rand.NewSource(c.seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > serveCrossChecks {
		keys = keys[:serveCrossChecks]
	}
	analyzers := map[string]*irdrop.Analyzer{}
	var out []error
	for _, k := range keys {
		out = append(out, crossCheckOne(c, k, bodies[k], analyzers))
	}
	return out
}

func crossCheckOne(c *config, key string, body []byte, analyzers map[string]*irdrop.Analyzer) error {
	parts := strings.Split(key, "|")
	io, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return err
	}
	r, err := query.Query{Bench: parts[0], State: parts[1], IO: io}.Resolve()
	if err != nil {
		return err
	}
	r.Spec = withPitch(r.Spec, c.pitch)
	a, ok := analyzers[r.SpecKey()]
	if !ok {
		if a, err = irdrop.New(r.Spec, r.Bench.DRAMPower, r.Logic); err != nil {
			return err
		}
		analyzers[r.SpecKey()] = a
	}
	res, err := a.Analyze(r.State, io)
	if err != nil {
		return err
	}
	var got serve.AnalyzeResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("serve-mixed: answer for %s: %w", key, err)
	}
	want := renderIR(r.Counts, io, res.PerDie)
	perDie := make([]float64, len(got.PerDieMV))
	for i, v := range got.PerDieMV {
		perDie[i] = v / 1000
	}
	return compareText("serve-mixed cross-check "+key, want, renderIR(r.Counts, io, perDie))
}
