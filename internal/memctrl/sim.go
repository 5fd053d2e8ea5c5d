package memctrl

import (
	"errors"
	"fmt"
	"slices"

	"pdn3d/internal/lut"
	"pdn3d/internal/memstate"
)

// IRPolicy selects how the controller limits parallel activations.
type IRPolicy uint8

const (
	// PolicyStandard is the JEDEC DDR3 policy: global tRRD spacing and a
	// four-activate tFAW window, blind to 3D stacking (§5.2).
	PolicyStandard IRPolicy = iota
	// PolicyIRAware replaces tRRD/tFAW with a look-up-table check: an
	// activation issues only if the resulting memory state's maximum IR
	// drop stays under the configured constraint.
	PolicyIRAware
)

func (p IRPolicy) String() string {
	if p == PolicyIRAware {
		return "IR-aware"
	}
	return "Standard"
}

// Scheduler selects the queue priority order.
type Scheduler uint8

const (
	// FCFS gives the oldest request the highest priority.
	FCFS Scheduler = iota
	// DistR (distributed-read) gives requests targeting the die with the
	// fewest open banks the highest priority, balancing reads across dies
	// to raise parallelism under the IR constraint (§5.2).
	DistR
)

func (s Scheduler) String() string {
	if s == DistR {
		return "DistR"
	}
	return "FCFS"
}

// Config parameterizes one simulation.
type Config struct {
	// Timing is the DRAM timing set.
	Timing Timing
	// Dies and BanksPerDie define the stack geometry.
	Dies, BanksPerDie int
	// Channels is the independent channel count. Stacked DDR3 has one
	// channel; Wide I/O has four (one per quadrant); HMC has sixteen
	// vault channels.
	Channels int
	// ChannelOf maps a request's (die, bank) to its channel. Nil selects
	// the default bank%Channels interleaving.
	ChannelOf func(die, bank int) int
	// QueueDepth is the priority queue size (paper: 32).
	QueueDepth int
	// Policy selects standard vs. IR-drop-aware activation limiting.
	Policy IRPolicy
	// Sched selects FCFS vs. DistR priority.
	Sched Scheduler
	// IRLimit is the IR-drop constraint in volts for PolicyIRAware.
	IRLimit float64
	// LUT is the IR-drop look-up table over the stack's Dies; required
	// for PolicyIRAware and used in any mode to report the worst
	// memory-state IR encountered.
	LUT *lut.Table
}

const (
	// idleCloseCycles is how many cycles without reads close an open bank
	// (§2.3).
	idleCloseCycles = 28
	// fcfsLookahead is how deep into the priority order FCFS searches for
	// an issuable command each cycle, keeping near-arrival order. DistR
	// searches the whole queue in its own order.
	fcfsLookahead = 16
)

// DefaultConfig returns the paper's controller setup for a 4-die, 8-bank
// stacked DDR3 with the given policy and scheduler.
func DefaultConfig(policy IRPolicy, sched Scheduler, table *lut.Table, irLimitV float64) Config {
	return Config{
		Timing:      DDR3_1600(),
		Dies:        4,
		BanksPerDie: 8,
		Channels:    1,
		QueueDepth:  32,
		Policy:      policy,
		Sched:       sched,
		IRLimit:     irLimitV,
		LUT:         table,
	}
}

// Validate checks the configuration: the policy and scheduler are ones
// defined here, a LUT covers the stack's dies, and ChannelOf puts every
// (die, bank) on a channel in [0, Channels).
func (c *Config) Validate() error {
	_, err := c.validate()
	return err
}

// validate checks the configuration and returns its channel table: the
// channel of die d's bank b at d*BanksPerDie+b.
func (c *Config) validate() ([]int, error) {
	if err := c.Timing.Validate(); err != nil {
		return nil, err
	}
	if c.Dies <= 0 || c.BanksPerDie <= 0 {
		return nil, fmt.Errorf("memctrl: empty stack geometry %dx%d", c.Dies, c.BanksPerDie)
	}
	if c.Channels <= 0 {
		return nil, fmt.Errorf("memctrl: channels %d must be positive", c.Channels)
	}
	if c.QueueDepth <= 0 {
		return nil, fmt.Errorf("memctrl: queue depth %d must be positive", c.QueueDepth)
	}
	if c.Policy != PolicyStandard && c.Policy != PolicyIRAware {
		return nil, fmt.Errorf("memctrl: unknown IR policy %d", c.Policy)
	}
	if c.Sched != FCFS && c.Sched != DistR {
		return nil, fmt.Errorf("memctrl: unknown scheduler %d", c.Sched)
	}
	if c.Policy == PolicyIRAware {
		if c.LUT == nil {
			return nil, fmt.Errorf("memctrl: IR-aware policy needs a look-up table")
		}
		if c.IRLimit <= 0 {
			return nil, fmt.Errorf("memctrl: IR-aware policy needs a positive IR limit")
		}
	}
	if c.LUT != nil && c.LUT.Dies != c.Dies {
		return nil, fmt.Errorf("memctrl: LUT covers %d dies, stack has %d", c.LUT.Dies, c.Dies)
	}
	channel := make([]int, c.Dies*c.BanksPerDie)
	for d := 0; d < c.Dies; d++ {
		for b := 0; b < c.BanksPerDie; b++ {
			ch := b % c.Channels
			if c.ChannelOf != nil {
				ch = c.ChannelOf(d, b)
			}
			if ch < 0 || ch >= c.Channels {
				return nil, fmt.Errorf("memctrl: ChannelOf puts die %d bank %d on channel %d outside [0,%d)",
					d, b, ch, c.Channels)
			}
			channel[d*c.BanksPerDie+b] = ch
		}
	}
	return channel, nil
}

// Result reports one simulation run.
type Result struct {
	// Cycles is the total runtime in memory clocks.
	Cycles int64
	// RuntimeUS is the runtime in microseconds.
	RuntimeUS float64
	// Bandwidth is reads per clock (the paper's Table 6 metric).
	Bandwidth float64
	// MaxIR is the worst memory-state IR drop encountered (V), from the
	// LUT; zero when no LUT was given.
	MaxIR float64
	// RowHits and RowMisses count read outcomes.
	RowHits, RowMisses int
	// Activations counts ACT commands.
	Activations int
	// AvgLatency is the mean arrival-to-data-end latency in cycles.
	AvgLatency float64
	// MaxOpenBanks is the peak number of simultaneously open banks.
	MaxOpenBanks int
	// Blocked counts scheduling attempts rejected by the IR constraint
	// or the standard policy's windows.
	Blocked int64
	// LUTMisses counts look-ups that fell outside the built LUT grid
	// (lut.ErrNotCovered). The policy stays conservative on a miss —
	// the state is treated as over-limit — but a non-zero count means
	// the table was built too small for the simulated configuration, so
	// it is surfaced instead of silently swallowed.
	LUTMisses int64
}

type bankState uint8

const (
	bankIdle bankState = iota
	bankActivating
	bankActive
	bankPrecharging
)

type bank struct {
	state   bankState
	row     int
	ready   int64 // cycle the current transition completes
	rasEnd  int64 // earliest precharge (ACT + tRAS)
	nextRD  int64 // earliest next read issue (tCCD)
	lastUse int64 // last read data-end (idle-close countdown)
}

// Simulate runs the request stream to completion and returns statistics.
// The input slice's Done fields are filled in place.
func Simulate(cfg Config, reqs []Request) (*Result, error) {
	channel, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("memctrl: empty request stream")
	}
	return newSim(cfg, reqs, channel).run()
}

type sim struct {
	cfg     Config
	reqs    []Request
	channel []int // per (die, bank), from Config.validate

	now      int64
	banks    [][]bank // [die][bank]
	busUntil []int64  // per channel
	// queue holds the admitted requests by arrival, ties in admission
	// order (see admitArrivals).
	queue   []*Request
	nextArr int
	done    int

	openPerDie []int
	lastACT    int64
	actTimes   []int64 // ACT history for tFAW
	res        Result
	latSum     int64

	// IR look-up outcomes cached per open-bank vector over the LUT's
	// grid (see state): observed for observeIR, verdicts[state*Dies+die]
	// for an IR-aware activation on die. Nil without a LUT.
	observed, verdicts []outcome

	// Per-cycle scratch, reused so a cycle allocates nothing: the count
	// vectors handed to the LUT, the requests in priority order and the
	// per-channel issued flags.
	counts, alone []int
	cands         []*Request
	issued        []bool
}

// outcome is what one IR look-up did to the run, cached per open-bank
// vector so that asking again only repeats its counting.
type outcome uint8

const (
	unknown outcome = iota // not looked up yet
	pass                   // under the limit; for observeIR, recorded
	fail                   // over the limit, a failed look-up, or an idle stack
	miss                   // outside the built table (lut.ErrNotCovered)
)

// newSim allocates a run's state: banks, channels, the queue and the IR
// outcome caches.
func newSim(cfg Config, reqs []Request, channel []int) *sim {
	s := &sim{cfg: cfg, reqs: reqs, channel: channel}
	s.banks = make([][]bank, cfg.Dies)
	for d := range s.banks {
		s.banks[d] = make([]bank, cfg.BanksPerDie)
	}
	s.busUntil = make([]int64, cfg.Channels)
	s.issued = make([]bool, cfg.Channels)
	s.openPerDie = make([]int, cfg.Dies)
	s.lastACT = -int64(cfg.Timing.TRRD)
	s.queue = make([]*Request, 0, min(cfg.QueueDepth, len(reqs)))
	if t := cfg.LUT; t != nil {
		// One slot past the LUT's grid stands for every vector outside
		// it, where each look-up misses.
		states := memstate.StateCount(t.Dies, t.MaxPerDie)
		s.observed = make([]outcome, states+1)
		s.verdicts = make([]outcome, (states+1)*cfg.Dies)
		s.observed[states] = miss
		for d := range cfg.Dies {
			s.verdicts[states*cfg.Dies+d] = miss
		}
	}
	return s
}

func (s *sim) run() (*Result, error) {
	cfg := &s.cfg
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

func (s *sim) maxDone() int64 {
	var mx int64
	for i := range s.reqs {
		if s.reqs[i].Done > mx {
			mx = s.reqs[i].Done
		}
	}
	return mx
}

func (s *sim) tick() {
	s.updateBanks()
	s.admitArrivals()
	s.schedule()
	s.observeIR()
}

// updateBanks advances bank state machines and applies the idle-close
// policy.
func (s *sim) updateBanks() {
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

// admitArrivals moves arrived requests into the queue in stream order
// while it has room. Each goes in after every queued request that arrived
// no later, so the queue stays in arrival order with ties in admission
// order: FCFS priority. For Generate's streams that is an append.
func (s *sim) admitArrivals() {
	for s.nextArr < len(s.reqs) && len(s.queue) < s.cfg.QueueDepth &&
		s.reqs[s.nextArr].Arrival <= s.now {
		r := &s.reqs[s.nextArr]
		i := len(s.queue)
		for i > 0 && s.queue[i-1].Arrival > r.Arrival {
			i--
		}
		s.queue = slices.Insert(s.queue, i, r)
		s.nextArr++
	}
}

// state returns the index of the open-bank vector's cached IR outcomes:
// its memstate.StateIndex in the LUT's grid, or the miss slot past the
// grid when a die has more open banks than the LUT covers.
func (s *sim) state() int {
	i, bad := memstate.StateIndex(s.openPerDie, s.cfg.LUT.MaxPerDie)
	if bad >= 0 {
		return len(s.observed) - 1
	}
	return i
}

// observeIR tracks the worst memory-state IR drop seen (what the paper's
// Table 6 reports as "Max IR drop") and counts a look-up outside the LUT
// on every cycle it happens. A state is looked up once: once recorded it
// cannot raise MaxIR again.
func (s *sim) observeIR() {
	if s.cfg.LUT == nil {
		return
	}
	i := s.state()
	if s.observed[i] == unknown {
		s.observed[i] = s.lookupIR()
	}
	if s.observed[i] == miss {
		s.res.LUTMisses++
	}
}

// lookupIR looks up the current memory state's IR drop and records it in
// MaxIR. A look-up outside the table is reported as a miss, not swallowed.
func (s *sim) lookupIR() outcome {
	counts, active := s.countsAndActive(-1, 0)
	if active == 0 {
		return fail
	}
	ir, err := s.cfg.LUT.MaxIR(counts, perDieIO(counts))
	if err != nil {
		return lookupFailure(err)
	}
	if ir > s.res.MaxIR {
		s.res.MaxIR = ir
	}
	return pass
}

// lookupFailure classifies a failed LUT look-up: an uncovered point is a
// miss; other look-up failures cannot happen (MaxIR only fails with
// *NotCoveredError), but the errors.Is guard keeps that assumption checked.
func lookupFailure(err error) outcome {
	if errors.Is(err, lut.ErrNotCovered) {
		return miss
	}
	return fail
}

// countsAndActive returns the per-die open bank counts; when extraDie >= 0
// the hypothetical extra open banks are added to that die. The vector is
// the sim's scratch, valid until the next call.
func (s *sim) countsAndActive(extraDie, extra int) ([]int, int) {
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
func (s *sim) aloneCounts(die int) []int {
	s.alone = append(s.alone[:0], s.openPerDie...)
	clear(s.alone)
	s.alone[die] = s.openPerDie[die] + 1
	return s.alone
}

// perDieIO returns the per-die I/O activity of a memory state on the
// shared zero-bubble bus: active dies split the bus evenly. A single open
// bank already sustains the full stream (tCCD equals the burst length), so
// the bank count does not enter.
func perDieIO(counts []int) float64 {
	active := 0
	for _, c := range counts {
		if c > 0 {
			active++
		}
	}
	if active == 0 {
		return 0
	}
	return 1 / float64(active)
}
