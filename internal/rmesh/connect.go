package rmesh

import (
	"fmt"

	"pdn3d/internal/geom"
	"pdn3d/internal/pdn"
)

// stampConnections wires the dies together and to the package supply:
// C4 ties, TSV stacks, dedicated TSVs, F2F carpets, B2B links, RDL
// attachments and backside bond wires.
func (m *Model) stampConnections(b stamper) error {
	spec := m.Spec
	dt := spec.DRAMTech
	memSites := spec.TSVSites()
	alive := func(k int) bool { return !spec.FailedTSVs[k] }
	aliveSites := make([]geom.Point, 0, len(memSites))
	for k, p := range memSites {
		if alive(k) {
			aliveSites = append(aliveSites, p)
		}
	}

	link := func(kind LinkKind, n1, n2 int, r float64) {
		g := 1 / r
		b.AddConductance(n1, n2, g)
		m.Links = append(m.Links, Link{Kind: kind, N1: n1, N2: n2, G: g})
		m.Resistors++
	}
	tie := func(kind LinkKind, n int, r float64) {
		g := 1 / r
		b.AddToGround(n, g)
		m.Ties = append(m.Ties, Tie{Node: n, G: g})
		m.Links = append(m.Links, Link{Kind: kind, N1: n, N2: -1, G: g})
		m.Resistors++
	}

	top := func(d int) (*Layer, error) {
		names := orderedLayers(dt)
		l, ok := m.Layer(fmt.Sprintf("dram%d/%s", d, names[len(names)-1]))
		if !ok {
			return nil, fmt.Errorf("rmesh: missing top layer for die %d", d)
		}
		return l, nil
	}
	backRDL := func(d int) *Layer {
		l, _ := m.Layer(fmt.Sprintf("dram%d/RDL", d))
		return l
	}

	// The bottom die of an F2F stack faces up, so supply entering its
	// face-level metal from below passes through its own TSVs.
	var bottomExtra float64
	if spec.Bonding == pdn.F2F {
		bottomExtra = dt.PGTSV.R
	}

	top0, err := top(0)
	if err != nil {
		return err
	}

	// bottomEntry resolves where supply current enters the DRAM stack for
	// landing index k: the interface RDL when present, otherwise the
	// bottom die's top metal at the TSV site.
	rdlIf, hasRDLIf := m.Layer("rdl/if")
	var rdlEntries []int
	if hasRDLIf {
		for _, p := range spec.RDLEntrySites() {
			rdlEntries = append(rdlEntries, rdlIf.NodeAt(p))
		}
	}
	bottomEntry := func(k int) (node int, extraR float64) {
		if hasRDLIf {
			return rdlEntries[k], 0
		}
		return top0.NodeAt(memSites[k]), bottomExtra
	}

	// --- Supply into the stack bottom ---
	landings := spec.LandingSites()
	switch {
	case !spec.OnLogic:
		// Off-chip: package balls under every landing site.
		for k := range landings {
			if !alive(k) {
				continue
			}
			n, extra := bottomEntry(k)
			tie(LinkLanding, n, dt.C4.R+extra)
		}
	case spec.DedicatedTSV:
		// Dedicated via-last TSVs feed the stack directly from the
		// package; the logic and DRAM PDNs stay decoupled (§4.1).
		for k := range landings {
			if !alive(k) {
				continue
			}
			n, extra := bottomEntry(k)
			tie(LinkLanding, n, spec.LogicTech.C4.R+spec.LogicTech.DedicatedTSV.R+extra)
		}
	default:
		// Power rises through the logic die's PDN: the PG TSV lands on the
		// thick global straps (top layer) at the landing position and
		// climbs to the DRAM entry, paying the TSV, the micro-bump, and —
		// when misaligned — a lateral detour through the logic *local*
		// metal to the nearest C4 (§3.2).
		logicTop, logicLoad := m.logicTopLayer(), m.logicLoad
		if logicTop == nil || logicLoad == nil {
			return fmt.Errorf("rmesh: on-chip spec without logic layers")
		}
		uLocal := spec.LogicUsage[logicLoad.Name]
		localSheet := logicLoad.REff * uLocal // recover sheet R
		detourPerMM := localSheet / uLocal / misalignSpreadW
		for k, ls := range landings {
			if !alive(k) {
				continue
			}
			n, extra := bottomEntry(k)
			r := dt.PGTSV.R + dt.MicroBump.R + extra + ls.Misalign*detourPerMM
			link(LinkLanding, logicTop.NodeAt(ls.Pos), n, r)
		}
	}

	// --- Logic die package attach ---
	if spec.OnLogic {
		logicTop := m.logicTopLayer()
		for _, p := range spec.C4Sites() {
			// Logic C4s are plentiful and uninteresting for crowding;
			// record them as ties only.
			g := 1 / spec.LogicTech.C4.R
			b.AddToGround(logicTop.NodeAt(p), g)
			m.Ties = append(m.Ties, Tie{Node: logicTop.NodeAt(p), G: g})
			m.Resistors++
		}
	}

	// --- Interface RDL down to the bottom die ---
	if hasRDLIf {
		for k, p := range memSites {
			if !alive(k) {
				continue
			}
			link(LinkRDL, rdlIf.NodeAt(p), top0.NodeAt(p), dt.MicroBump.R+bottomExtra)
		}
	}

	// --- DRAM inter-die interfaces ---
	// wired marks the dies whose backside RDL an interface links up.
	wired := make([]bool, spec.NumDRAM)
	for i := 0; i+1 < spec.NumDRAM; i++ {
		lo, err := top(i)
		if err != nil {
			return err
		}
		hi, err := top(i + 1)
		if err != nil {
			return err
		}
		if spec.Bonding == pdn.F2F && i%2 == 0 {
			// F2F pair: dense via carpet joins the two face metals at
			// every mesh node — the pair shares a four-layer PDN (§4.2).
			g := 1 / dt.F2FVia.R
			for n := 0; n < lo.Grid.N(); n++ {
				b.AddConductance(lo.Offset+n, hi.Offset+n, g)
				m.Resistors++
			}
			continue
		}
		// F2B interface, or B2B between F2F pairs.
		b2b := spec.Bonding == pdn.F2F
		rTSV, rUp := dt.PGTSV.R, dt.MicroBump.R
		if b2b {
			rUp += dt.PGTSV.R
		}
		if rdl := backRDL(i); rdl != nil {
			// Backside RDL splits the vertical link and adds lateral
			// spreading between the dies.
			wired[i] = true
			for k, p := range memSites {
				if !alive(k) {
					continue
				}
				link(LinkTSV, lo.NodeAt(p), rdl.NodeAt(p), rTSV)
				link(LinkRDL, rdl.NodeAt(p), hi.NodeAt(p), rUp)
			}
			continue
		}
		kind := LinkTSV
		if b2b {
			kind = LinkB2B
		}
		for k, p := range memSites {
			if !alive(k) {
				continue
			}
			link(kind, lo.NodeAt(p), hi.NodeAt(p), rTSV+rUp)
		}
	}

	// --- Backside RDLs no interface links ---
	// A die's backside RDL reaches its face metal through the die's own
	// TSVs. The top die, and the face-up die of an F2F pair, have no
	// interface that does this, so they get that TSV leg alone; without
	// it their RDL would float.
	for d := 0; d < spec.NumDRAM; d++ {
		rdl := backRDL(d)
		if rdl == nil || wired[d] {
			continue
		}
		face, err := top(d)
		if err != nil {
			return err
		}
		for k, p := range memSites {
			if !alive(k) {
				continue
			}
			link(LinkTSV, face.NodeAt(p), rdl.NodeAt(p), dt.PGTSV.R)
		}
	}

	// --- Backside wire bonding ---
	if spec.WireBond {
		for d := 0; d < spec.NumDRAM; d++ {
			attach := backRDL(d)
			rWire := dt.Wire.R(spec.WireLength(d))
			for _, p := range spec.WireSites() {
				if attach != nil {
					// A backside RDL is thick metal: the pad ties into it
					// directly.
					tie(LinkWire, attach.NodeAt(p), rWire)
					continue
				}
				// Without an RDL the edge pad reaches the die's face
				// metal through the thin backside metallization routed to
				// the nearest TSV landing, then down the TSV (§4.1).
				nearest := nearestSite(p, aliveSites)
				route := p.Dist(nearest) * backsideRoutePerMM
				t, err := top(d)
				if err != nil {
					return err
				}
				tie(LinkWire, t.NodeAt(nearest), rWire+route+dt.PGTSV.R)
			}
		}
	}

	if len(m.Ties) == 0 {
		return fmt.Errorf("rmesh: design has no supply ties")
	}
	return nil
}

// backsideRoutePerMM is the resistance per mm of the thin backside
// metallization that routes a bond pad to the nearest TSV landing (Ω/mm).
const backsideRoutePerMM = 0.35

func nearestSite(p geom.Point, sites []geom.Point) geom.Point {
	best := sites[0]
	bd := p.Dist(best)
	for _, q := range sites[1:] {
		if d := p.Dist(q); d < bd {
			bd, best = d, q
		}
	}
	return best
}

// logicTopLayer returns the logic die's package-facing (global) PDN layer.
func (m *Model) logicTopLayer() *Layer {
	names := orderedLayers(m.Spec.LogicTech)
	for i := len(names) - 1; i >= 0; i-- {
		if l, ok := m.Layer("logic/" + names[i]); ok {
			return l
		}
	}
	return nil
}
