package memctrl

import (
	"cmp"
	"slices"
)

// schedule is the per-cycle scheduling pass: for each channel, the
// controller walks the priority queue and issues the first command
// (read, activate, or conflict precharge) whose conditions hold — timing
// met, no bus conflict, and the IR-drop constraint satisfied (§5.2).
func (s *sim) schedule() {
	if len(s.queue) == 0 {
		return
	}
	order := s.priorityOrder()
	if la := s.cfg.lookahead(len(order)); la < len(order) {
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
func (s *sim) priorityOrder() []int {
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
	if s.openPerDie[die] >= s.cfg.MaxBanksPerDie {
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
		if total >= s.cfg.MaxBanksPerDie {
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
func (s *sim) channelOf(req *Request) int {
	if s.cfg.ChannelOf != nil {
		ch := s.cfg.ChannelOf(req.Die, req.Bank)
		if ch < 0 || ch >= s.cfg.Channels {
			return 0
		}
		return ch
	}
	return req.Bank % s.cfg.Channels
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
