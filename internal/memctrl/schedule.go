package memctrl

import (
	"slices"

	"pdn3d/internal/memstate"
)

// schedule is the per-cycle scheduling pass: for each channel, the
// controller walks the priority queue and issues the first command
// (read, activate, or conflict precharge) whose conditions hold — timing
// met, no bus conflict, and the IR-drop constraint satisfied (§5.2).
func (s *sim) schedule() {
	if len(s.queue) == 0 {
		return
	}
	clear(s.issued)
	nIssued := 0
	for _, req := range s.priorityOrder() {
		if nIssued == s.cfg.Channels {
			break
		}
		ch := s.channel[req.Die*s.cfg.BanksPerDie+req.Bank]
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

// priorityOrder returns the requests this cycle searches, in scheduling
// priority, in the sim's scratch: a copy, since issuing a read removes it
// from the queue. FCFS takes the queue's own arrival order and searches
// its first fcfsLookahead. DistR puts requests whose target die has the
// fewest open banks first, ties by arrival: it buckets the queue by its
// dies' open banks, each bucket in queue order, and searches the whole
// queue.
func (s *sim) priorityOrder() []*Request {
	s.cands = s.cands[:0]
	if s.cfg.Sched == FCFS {
		s.cands = append(s.cands, s.queue[:min(len(s.queue), fcfsLookahead)]...)
		return s.cands
	}
	top := slices.Max(s.openPerDie)
	for open := 0; open <= top; open++ {
		for _, r := range s.queue {
			if s.openPerDie[r.Die] == open {
				s.cands = append(s.cands, r)
			}
		}
	}
	return s.cands
}

// tryIssue attempts to make progress on one request; reports whether a
// command was issued this cycle.
func (s *sim) tryIssue(req *Request, ch int) bool {
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
func (s *sim) mayActivate(die int) bool {
	if s.openPerDie[die] >= memstate.MaxInterleavedBanks {
		return false // interleave cap (charge pump protection)
	}
	if s.cfg.Policy == PolicyIRAware {
		switch s.irVerdict(die) {
		case pass:
			return true
		case miss:
			s.res.LUTMisses++
		}
		s.res.Blocked++
		return false
	}
	// The standard policy is blind to 3D stacking (§5.2): the whole stack
	// presents as one DDR3 device, so the interleave limit applies
	// stack-wide, not per die.
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
}

// irVerdict returns the IR check's outcome for activating a bank on die,
// looking it up only the first time this open-bank vector asks it.
func (s *sim) irVerdict(die int) outcome {
	i := s.state()*s.cfg.Dies + die
	if s.verdicts[i] == unknown {
		s.verdicts[i] = s.lookupVerdict(die)
	}
	return s.verdicts[i]
}

// lookupVerdict checks an activation on die against the LUT. An uncovered
// LUT point (lut.ErrNotCovered) blocks like an over-limit state —
// conservative — but is a miss, so an undersized table is visible in the
// result instead of silently throttling.
func (s *sim) lookupVerdict(die int) outcome {
	// Check the state the activation creates...
	counts, _ := s.countsAndActive(die, 1)
	if o := s.underLimit(s.cfg.LUT.MaxIR(counts, perDieIO(counts))); o != pass {
		return o
	}
	// ...and the state it can decay into once other dies drain and this
	// die takes the whole bus (conservative against idle-close).
	return s.underLimit(s.cfg.LUT.MaxIR(s.aloneCounts(die), 1.0))
}

// underLimit classifies one LUT answer against the IR limit.
func (s *sim) underLimit(ir float64, err error) outcome {
	if err != nil {
		return lookupFailure(err)
	}
	if ir > s.cfg.IRLimit {
		return fail
	}
	return pass
}

func (s *sim) trackOpenBanks() {
	open := 0
	for _, n := range s.openPerDie {
		open += n
	}
	if open > s.res.MaxOpenBanks {
		s.res.MaxOpenBanks = open
	}
}

func (s *sim) removeFromQueue(req *Request) {
	for i, r := range s.queue {
		if r == req {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}
