package memctrl

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pdn3d/internal/lut"
	"pdn3d/internal/memstate"
)

// refSimulate and refSim are the scheduling cycle the arrival-ordered
// queue, the channel table and the IR outcome cache replaced: a stable
// sort of the whole queue every cycle, a channel look-up per candidate and
// two LUT look-ups per IR-aware activation attempt. They are kept verbatim
// apart from their names (refLookahead was Config.lookahead) and the
// interleave cap, read from memstate.MaxInterleavedBanks, as the reference
// every simulation must match bit for bit: every Result field and every
// Request.Done.
func refSimulate(cfg Config, reqs []Request) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("memctrl: empty request stream")
	}
	s := &refSim{cfg: cfg, reqs: reqs}
	return s.run()
}

func refLookahead(c *Config, queueLen int) int {
	if c.Sched == FCFS {
		return fcfsLookahead
	}
	return queueLen
}

type refSim struct {
	cfg  Config
	reqs []Request

	now      int64
	banks    [][]bank // [die][bank]
	busUntil []int64  // per channel
	queue    []*Request
	nextArr  int
	done     int

	openPerDie []int
	lastACT    int64
	actTimes   []int64 // ACT history for tFAW
	res        Result
	latSum     int64

	// Per-cycle scratch, reused so a cycle allocates nothing: the count
	// vectors handed to the LUT, the priority order, its requests and the
	// per-channel issued flags.
	counts, alone []int
	order         []int
	cands         []*Request
	issued        []bool
}

func (s *refSim) run() (*Result, error) {
	cfg := &s.cfg
	s.banks = make([][]bank, cfg.Dies)
	for d := range s.banks {
		s.banks[d] = make([]bank, cfg.BanksPerDie)
	}
	s.busUntil = make([]int64, cfg.Channels)
	s.issued = make([]bool, cfg.Channels)
	s.openPerDie = make([]int, cfg.Dies)
	s.lastACT = -int64(cfg.Timing.TRRD)

	for _, r := range s.reqs {
		if r.Die < 0 || r.Die >= cfg.Dies || r.Bank < 0 || r.Bank >= cfg.BanksPerDie {
			return nil, fmt.Errorf("memctrl: request %d targets die %d bank %d outside %dx%d stack",
				r.ID, r.Die, r.Bank, cfg.Dies, cfg.BanksPerDie)
		}
	}

	guard := int64(len(s.reqs))*int64(cfg.Timing.TRAS+cfg.Timing.TRP+cfg.Timing.TRCD+cfg.Timing.TCL+64) + 1_000_000
	for s.done < len(s.reqs) {
		if s.now > guard {
			return nil, fmt.Errorf("memctrl: simulation exceeded %d cycles (deadlock?)", guard)
		}
		s.tick()
		s.now++
	}
	s.res.Cycles = s.maxDone()
	s.res.RuntimeUS = float64(s.res.Cycles) * cfg.Timing.ClockNS / 1000
	s.res.Bandwidth = float64(len(s.reqs)) / float64(s.res.Cycles)
	s.res.AvgLatency = float64(s.latSum) / float64(len(s.reqs))
	return &s.res, nil
}

func (s *refSim) maxDone() int64 {
	var mx int64
	for i := range s.reqs {
		if s.reqs[i].Done > mx {
			mx = s.reqs[i].Done
		}
	}
	return mx
}

func (s *refSim) tick() {
	s.updateBanks()
	s.admitArrivals()
	s.schedule()
	s.observeIR()
}

// updateBanks advances bank state machines and applies the idle-close
// policy.
func (s *refSim) updateBanks() {
	for d := range s.banks {
		for b := range s.banks[d] {
			bk := &s.banks[d][b]
			switch bk.state {
			case bankActivating:
				if s.now >= bk.ready {
					bk.state = bankActive
				}
			case bankPrecharging:
				if s.now >= bk.ready {
					bk.state = bankIdle
				}
			case bankActive:
				if s.now >= bk.rasEnd && s.now-bk.lastUse >= idleCloseCycles && s.now >= bk.nextRD {
					bk.state = bankPrecharging
					bk.ready = s.now + int64(s.cfg.Timing.TRP)
					s.openPerDie[d]--
				}
			}
		}
	}
}

func (s *refSim) admitArrivals() {
	for s.nextArr < len(s.reqs) && len(s.queue) < s.cfg.QueueDepth &&
		s.reqs[s.nextArr].Arrival <= s.now {
		s.queue = append(s.queue, &s.reqs[s.nextArr])
		s.nextArr++
	}
}

// observeIR looks up the current memory state's IR drop and tracks the
// worst one seen (what the paper's Table 6 reports as "Max IR drop").
func (s *refSim) observeIR() {
	if s.cfg.LUT == nil {
		return
	}
	counts, active := s.countsAndActive(-1, 0)
	if active == 0 {
		return
	}
	ir, err := s.cfg.LUT.MaxIR(counts, perDieIO(counts))
	if err != nil {
		s.noteLUTMiss(err)
		return
	}
	if ir > s.res.MaxIR {
		s.res.MaxIR = ir
	}
}

// noteLUTMiss records an uncovered LUT point instead of silently ignoring
// it; other look-up failures cannot happen (MaxIR only fails with
// *NotCoveredError), but the errors.Is guard keeps that assumption checked.
func (s *refSim) noteLUTMiss(err error) {
	if errors.Is(err, lut.ErrNotCovered) {
		s.res.LUTMisses++
	}
}

// countsAndActive returns the per-die open bank counts; when extraDie >= 0
// the hypothetical extra open banks are added to that die. The vector is
// the sim's scratch, valid until the next call.
func (s *refSim) countsAndActive(extraDie, extra int) ([]int, int) {
	s.counts = append(s.counts[:0], s.openPerDie...)
	active := 0
	for d := range s.counts {
		if extraDie == d {
			s.counts[d] += extra
		}
		if s.counts[d] > 0 {
			active++
		}
	}
	return s.counts, active
}

// aloneCounts returns the count vector of die running its open banks plus
// one with every other die idle, in the sim's scratch.
func (s *refSim) aloneCounts(die int) []int {
	s.alone = append(s.alone[:0], s.openPerDie...)
	clear(s.alone)
	s.alone[die] = s.openPerDie[die] + 1
	return s.alone
}

// perDieIO returns the per-die I/O activity of a memory state on the
// shared zero-bubble bus: active dies split the bus evenly. A single open
// bank already sustains the full stream (tCCD equals the burst length), so
// the bank count does not enter.

// schedule is the per-cycle scheduling pass: for each channel, the
// controller walks the priority queue and issues the first command
// (read, activate, or conflict precharge) whose conditions hold — timing
// met, no bus conflict, and the IR-drop constraint satisfied (§5.2).
func (s *refSim) schedule() {
	if len(s.queue) == 0 {
		return
	}
	order := s.priorityOrder()
	if la := refLookahead(&s.cfg, len(order)); la < len(order) {
		order = order[:la]
	}
	// Resolve the priority order to request pointers up front: issuing a
	// read removes it from the queue, which would invalidate raw indices.
	s.cands = s.cands[:0]
	for _, qi := range order {
		s.cands = append(s.cands, s.queue[qi])
	}
	clear(s.issued)
	nIssued := 0
	for _, req := range s.cands {
		if nIssued == s.cfg.Channels {
			break
		}
		ch := s.channelOf(req)
		if s.issued[ch] {
			continue
		}
		if s.tryIssue(req, ch) {
			s.issued[ch] = true
			nIssued++
			if req.Done > 0 {
				s.removeFromQueue(req)
			}
		}
	}
}

// priorityOrder returns queue indices in scheduling priority, in the
// sim's scratch. FCFS orders by arrival; DistR puts requests whose target
// die has the fewest open banks first (ties by arrival), balancing reads
// across dies. Both sorts are stable.
func (s *refSim) priorityOrder() []int {
	s.order = s.order[:0]
	for i := range s.queue {
		s.order = append(s.order, i)
	}
	if s.cfg.Sched == DistR {
		slices.SortStableFunc(s.order, func(a, b int) int {
			ra, rb := s.queue[a], s.queue[b]
			if c := cmp.Compare(s.openPerDie[ra.Die], s.openPerDie[rb.Die]); c != 0 {
				return c
			}
			return cmp.Compare(ra.Arrival, rb.Arrival)
		})
	} else {
		slices.SortStableFunc(s.order, func(a, b int) int {
			return cmp.Compare(s.queue[a].Arrival, s.queue[b].Arrival)
		})
	}
	return s.order
}

// tryIssue attempts to make progress on one request; reports whether a
// command was issued this cycle.
func (s *refSim) tryIssue(req *Request, ch int) bool {
	bk := &s.banks[req.Die][req.Bank]
	t := &s.cfg.Timing
	switch {
	case bk.state == bankActive && bk.row == req.Row:
		// Row hit: issue the read if the bank and data bus are ready.
		if s.now < bk.nextRD {
			return false
		}
		dataStart := s.now + int64(t.TCL)
		if s.busUntil[ch] > dataStart {
			return false
		}
		dataEnd := dataStart + int64(t.BurstCycles)
		s.busUntil[ch] = dataEnd + int64(t.BusGap)
		bk.nextRD = s.now + int64(t.TCCD)
		bk.lastUse = dataEnd
		req.Done = dataEnd
		s.latSum += dataEnd - req.Arrival
		s.done++
		s.res.RowHits++
		return true

	case bk.state == bankIdle && s.now >= bk.ready:
		// Row miss on a closed bank: activate.
		if !s.mayActivate(req.Die) {
			return false
		}
		bk.state = bankActivating
		bk.row = req.Row
		bk.ready = s.now + int64(t.TRCD)
		bk.rasEnd = s.now + int64(t.TRAS)
		bk.nextRD = s.now + int64(t.TRCD)
		bk.lastUse = s.now + int64(t.TRCD)
		s.openPerDie[req.Die]++
		s.lastACT = s.now
		s.actTimes = append(s.actTimes, s.now)
		s.res.Activations++
		s.res.RowMisses++
		s.trackOpenBanks()
		return true

	case bk.state == bankActive && bk.row != req.Row:
		// Conflict: precharge once tRAS allows and in-flight reads drain.
		if s.now < bk.rasEnd || s.now < bk.nextRD {
			return false
		}
		bk.state = bankPrecharging
		bk.ready = s.now + int64(t.TRP)
		s.openPerDie[req.Die]--
		return true
	}
	return false
}

// mayActivate applies the activation-limiting policy.
func (s *refSim) mayActivate(die int) bool {
	if s.openPerDie[die] >= memstate.MaxInterleavedBanks {
		return false // interleave cap (charge pump protection)
	}
	switch s.cfg.Policy {
	case PolicyStandard:
		// The standard policy is blind to 3D stacking (§5.2): the whole
		// stack presents as one DDR3 device, so the interleave limit
		// applies stack-wide, not per die.
		total := 0
		for _, n := range s.openPerDie {
			total += n
		}
		if total >= memstate.MaxInterleavedBanks {
			s.res.Blocked++
			return false
		}
		t := &s.cfg.Timing
		if s.now-s.lastACT < int64(t.TRRD) {
			s.res.Blocked++
			return false
		}
		// tFAW: at most 4 activates in any tFAW window.
		window := s.now - int64(t.TFAW)
		n := 0
		for i := len(s.actTimes) - 1; i >= 0 && s.actTimes[i] > window; i-- {
			n++
		}
		if n >= 4 {
			s.res.Blocked++
			return false
		}
		return true
	default: // PolicyIRAware
		// Check the state the activation creates... An uncovered LUT
		// point (lut.ErrNotCovered) blocks like an over-limit state —
		// conservative — but is also counted as a miss so an undersized
		// table is visible in the result instead of silently throttling.
		counts, _ := s.countsAndActive(die, 1)
		ir, err := s.cfg.LUT.MaxIR(counts, perDieIO(counts))
		if err != nil || ir > s.cfg.IRLimit {
			s.noteLUTMiss(err)
			s.res.Blocked++
			return false
		}
		// ...and the state it can decay into once other dies drain and
		// this die takes the whole bus (conservative against idle-close).
		ir, err = s.cfg.LUT.MaxIR(s.aloneCounts(die), 1.0)
		if err != nil || ir > s.cfg.IRLimit {
			s.noteLUTMiss(err)
			s.res.Blocked++
			return false
		}
		return true
	}
}

// channelOf resolves a request's channel.
func (s *refSim) channelOf(req *Request) int {
	if s.cfg.ChannelOf != nil {
		ch := s.cfg.ChannelOf(req.Die, req.Bank)
		if ch < 0 || ch >= s.cfg.Channels {
			return 0
		}
		return ch
	}
	return req.Bank % s.cfg.Channels
}

func (s *refSim) trackOpenBanks() {
	open := 0
	for _, n := range s.openPerDie {
		open += n
	}
	if open > s.res.MaxOpenBanks {
		s.res.MaxOpenBanks = open
	}
}

func (s *refSim) removeFromQueue(req *Request) {
	for i, r := range s.queue {
		if r == req {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// syntheticLUT builds a table of dies dies up to maxPerDie open banks per
// die, at the default I/O levels, whose drop grows with every open bank
// and weighs higher dies more: the table TestSimulateAllocatesLittle
// builds for 4 dies and 2 banks.
func syntheticLUT(tb testing.TB, dies, maxPerDie int) *lut.Table {
	tb.Helper()
	levels := lut.DefaultIOLevels()
	var pts []lut.Point
	for _, c := range memstate.EnumerateCounts(dies, maxPerDie) {
		for _, io := range levels {
			v := 0.004 + 0.003*io
			for d, n := range c {
				v += float64(n) * (0.002 + 0.001*float64(d)) * (0.5 + io)
			}
			pts = append(pts, lut.Point{Counts: c, IO: io, MaxIR: v})
		}
	}
	table, err := lut.FromPoints(dies, maxPerDie, levels, pts)
	if err != nil {
		tb.Fatal(err)
	}
	return table
}

// table6Run is one of Table 6's three controller configurations.
type table6Run struct {
	name string
	cfg  Config
}

// table6Runs returns Table 6's runs on table: the JEDEC policy, and the
// IR-aware policy under FCFS and DistR.
func table6Runs(table *lut.Table, irLimitV float64) []table6Run {
	return []table6Run{
		{"standard-fcfs", DefaultConfig(PolicyStandard, FCFS, table, 0)},
		{"ir-fcfs", DefaultConfig(PolicyIRAware, FCFS, table, irLimitV)},
		{"ir-distr", DefaultConfig(PolicyIRAware, DistR, table, irLimitV)},
	}
}

// unsorted returns a copy of reqs whose arrivals are jittered by up to
// ±30 cycles, rounded down to a multiple of 4 so that many tie, with one
// request in twenty held back 200 cycles: a stream out of arrival order,
// which also stalls admission behind each late request.
func unsorted(reqs []Request, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	out := slices.Clone(reqs)
	for i := range out {
		a := out[i].Arrival + int64(rng.Intn(61)-30)
		if rng.Intn(20) == 0 {
			a += 200
		}
		out[i].Arrival = max(0, a) &^ 3
	}
	return out
}

// simulateBoth runs cfg on two copies of reqs, one through Simulate and one
// through the reference cycle, and fails unless every Result field and
// every Done agree.
func simulateBoth(t *testing.T, cfg Config, reqs []Request) *Result {
	t.Helper()
	want := slices.Clone(reqs)
	wantRes, err := refSimulate(cfg, want)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	got := slices.Clone(reqs)
	gotRes, err := Simulate(cfg, got)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if *gotRes != *wantRes {
		t.Errorf("result differs from the reference:\n got  %+v\n want %+v", *gotRes, *wantRes)
	}
	for i := range got {
		if got[i].Done != want[i].Done {
			t.Errorf("request %d (arrival %d) done at %d, reference %d", i, got[i].Arrival, got[i].Done, want[i].Done)
			break
		}
	}
	return gotRes
}

// The arrival-ordered queue, the DistR bucket pass, the channel table and
// the IR outcome cache change how the cycle finds its answer, not the
// answer: every run must match the reference cycle bit for bit.
func TestSimulateMatchesReference(t *testing.T) {
	type stack struct {
		name           string
		banks, chans   int
		channelOf      func(die, bank int) int
		dies, lutBanks int // the LUT's dies and banks per die
		limit          float64
		requests       int
		seeds          []int64 // unsorted streams; nil runs Generate's own
	}
	stacks := []stack{
		// Table 6: stacked DDR3, 4 dies of 8 banks on one channel.
		{name: "ddr3", banks: 8, chans: 1, dies: 4, lutBanks: 2, limit: 0.016, requests: 10000},
		{name: "wideio", banks: 16, chans: 4, channelOf: func(_, bank int) int { return bank / 4 },
			dies: 4, lutBanks: 2, limit: 0.016, requests: 3000},
		{name: "hmc", banks: 32, chans: 16, channelOf: func(_, bank int) int { return bank / 2 },
			dies: 4, lutBanks: 2, limit: 0.016, requests: 3000},
		// A LUT up to one open bank per die misses every state with two.
		{name: "undersized", banks: 8, chans: 1, dies: 4, lutBanks: 1, limit: 0.016, requests: 3000},
		// A 12-die stack, once too large to cache: its outcomes are cached
		// over the LUT's 2^12 vectors, and every vector with two open
		// banks on a die shares the miss slot.
		{name: "uncached", banks: 8, chans: 2, dies: 12, lutBanks: 1, limit: 0.040, requests: 3000},
		{name: "ddr3-unsorted", banks: 8, chans: 1, dies: 4, lutBanks: 2, limit: 0.016, requests: 3000,
			seeds: []int64{1, 2, 3}},
		{name: "hmc-unsorted", banks: 32, chans: 16, channelOf: func(_, bank int) int { return bank / 2 },
			dies: 4, lutBanks: 2, limit: 0.016, requests: 3000, seeds: []int64{4, 5}},
	}
	for _, st := range stacks {
		table := syntheticLUT(t, st.dies, st.lutBanks)
		wl := DefaultWorkload(st.dies, st.banks)
		wl.Requests = st.requests
		reqs, err := Generate(wl)
		if err != nil {
			t.Fatal(err)
		}
		streams := [][]Request{reqs}
		if st.seeds != nil {
			streams = nil
			for _, seed := range st.seeds {
				streams = append(streams, unsorted(reqs, seed))
			}
		}
		var misses int64
		for _, run := range table6Runs(table, st.limit) {
			cfg := run.cfg
			cfg.Dies, cfg.BanksPerDie = st.dies, st.banks
			cfg.Channels, cfg.ChannelOf = st.chans, st.channelOf
			for i, stream := range streams {
				t.Run(fmt.Sprintf("%s/%s/%d", st.name, run.name, i), func(t *testing.T) {
					res := simulateBoth(t, cfg, stream)
					misses += res.LUTMisses
					if st.seeds != nil {
						// A shallow queue admits the late requests behind
						// the ones they held back.
						cfg.QueueDepth = 4
						simulateBoth(t, cfg, stream)
					}
				})
			}
		}
		if (st.lutBanks < 2) != (misses > 0) {
			t.Errorf("%s: %d LUT misses with a LUT up to %d banks per die", st.name, misses, st.lutBanks)
		}
	}
}
