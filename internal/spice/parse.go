package spice

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"pdn3d/internal/solve"
	"pdn3d/internal/sparse"
)

// Netlist is a parsed DC deck in the dialect WriteNetlist emits: one ideal
// VDD source, two-terminal resistors between mesh nodes ("R… n<i> n<j>"),
// supply ties ("RT… vdd n<i>"), and DC current loads to ground
// ("I… n<i> 0 DC …"). It is the interchange form of the benchmark corpus:
// System rebuilds the folded nodal equations the R-Mesh solver consumes.
type Netlist struct {
	// Title is the first comment card.
	Title string
	// VDD is the ideal supply voltage.
	VDD float64
	// Nodes is the mesh node count (highest node index + 1).
	Nodes int
	// Branches lists the node-to-node resistors in deck order.
	Branches []Branch
	// Ties lists the supply-tie resistors in deck order.
	Ties []Branch
	// Loads lists the DC current loads in deck order.
	Loads []Load
}

// Branch is one resistor line. For entries of Netlist.Ties, N2 is
// SupplyNode (the vdd side).
type Branch struct {
	N1, N2 int
	R      float64 // resistance in ohms, always positive and finite
}

// Load is one DC current source drawing I amperes from Node to ground.
type Load struct {
	Node int
	I    float64
}

// ParseError reports a malformed deck line with its 1-based line number.
type ParseError struct {
	Line int
	Text string
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("spice: line %d: %s: %q", e.Line, e.Msg, e.Text)
}

// Parse reads a DC deck in the WriteNetlist dialect. Comment cards are
// skipped (the first one becomes the title), analysis cards (".op",
// ".print") are ignored, and parsing stops at ".end". Unknown element
// cards, malformed node names, and non-positive or non-finite resistances
// are errors: the parser's job is to certify that a deck rebuilds into
// exactly one well-formed nodal system.
func Parse(r io.Reader) (*Netlist, error) {
	nl := &Netlist{VDD: math.NaN()}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	sawTitle := false
	sawEnd := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "*") {
			if !sawTitle {
				nl.Title = strings.TrimSpace(line[1:])
				sawTitle = true
			}
			continue
		}
		sawTitle = true // any element card ends the title region
		if strings.HasPrefix(line, ".") {
			if strings.EqualFold(line, ".end") {
				sawEnd = true
				break
			}
			continue // .op, .print, and other analysis cards
		}
		f := strings.Fields(line)
		bad := func(msg string) error { return &ParseError{Line: lineNo, Text: line, Msg: msg} }
		switch {
		case strings.HasPrefix(f[0], "V"):
			// VDD vdd 0 DC <v>
			if len(f) != 5 || f[1] != "vdd" || f[2] != "0" || !strings.EqualFold(f[3], "DC") {
				return nil, bad("malformed voltage source (want \"VDD vdd 0 DC <v>\")")
			}
			if !math.IsNaN(nl.VDD) {
				return nil, bad("second voltage source (the dialect has exactly one ideal supply)")
			}
			v, err := parseValue(f[4])
			if err != nil || v <= 0 {
				return nil, bad("bad supply voltage")
			}
			nl.VDD = v
		case strings.HasPrefix(f[0], "RT"):
			// RT<k> vdd n<i> <r>
			if len(f) != 4 || f[1] != "vdd" {
				return nil, bad("malformed supply tie (want \"RT<k> vdd n<i> <r>\")")
			}
			n, err := nl.parseNode(f[2])
			if err != nil {
				return nil, bad(err.Error())
			}
			res, err := parseResistance(f[3])
			if err != nil {
				return nil, bad(err.Error())
			}
			nl.Ties = append(nl.Ties, Branch{N1: n, N2: SupplyNode, R: res})
		case strings.HasPrefix(f[0], "R"):
			// R<k> n<i> n<j> <r>
			if len(f) != 4 {
				return nil, bad("malformed resistor (want \"R<k> n<i> n<j> <r>\")")
			}
			n1, err := nl.parseNode(f[1])
			if err != nil {
				return nil, bad(err.Error())
			}
			n2, err := nl.parseNode(f[2])
			if err != nil {
				return nil, bad(err.Error())
			}
			if n1 == n2 {
				return nil, bad("resistor shorts a node to itself")
			}
			res, err := parseResistance(f[3])
			if err != nil {
				return nil, bad(err.Error())
			}
			nl.Branches = append(nl.Branches, Branch{N1: n1, N2: n2, R: res})
		case strings.HasPrefix(f[0], "I"):
			// I<k> n<i> 0 DC <amps>
			if len(f) != 5 || f[2] != "0" || !strings.EqualFold(f[3], "DC") {
				return nil, bad("malformed current load (want \"I<k> n<i> 0 DC <amps>\")")
			}
			n, err := nl.parseNode(f[1])
			if err != nil {
				return nil, bad(err.Error())
			}
			amps, err := parseValue(f[4])
			if err != nil {
				return nil, bad("bad load current")
			}
			nl.Loads = append(nl.Loads, Load{Node: n, I: amps})
		default:
			return nil, bad("unknown element card")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("spice: reading deck: %w", err)
	}
	if !sawEnd {
		return nil, fmt.Errorf("spice: deck has no .end card")
	}
	if math.IsNaN(nl.VDD) {
		return nil, fmt.Errorf("spice: deck has no VDD supply source")
	}
	return nl, nil
}

// parseNode maps "n<i>" to the node index i, growing the node count.
func (nl *Netlist) parseNode(s string) (int, error) {
	if len(s) < 2 || s[0] != 'n' {
		return 0, fmt.Errorf("bad node name %q (want n<index>)", s)
	}
	n, err := strconv.Atoi(s[1:])
	// MaxInt is refused too: the node count n+1 would overflow.
	if err != nil || n < 0 || n == math.MaxInt {
		return 0, fmt.Errorf("bad node index %q", s)
	}
	if n >= nl.Nodes {
		nl.Nodes = n + 1
	}
	return n, nil
}

func parseValue(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad numeric value %q", s)
	}
	return v, nil
}

func parseResistance(s string) (float64, error) {
	v, err := parseValue(s)
	if err != nil {
		return 0, err
	}
	if v <= 0 {
		return 0, fmt.Errorf("non-positive resistance %q", s)
	}
	return v, nil
}

// UnreferencedNodesError reports a deck whose highest node index implies
// more nodes than its cards can reference. Every unreferenced node is a
// floating row, so the system would be singular anyway; System rejects it
// before allocating, which keeps a three-card deck naming node n4000000000000
// from asking for terabytes.
type UnreferencedNodesError struct {
	// Nodes is the node count the highest index implies.
	Nodes int
	// Refs is the most nodes the cards can reference:
	// 2·branches + ties + loads.
	Refs int
}

func (e *UnreferencedNodesError) Error() string {
	return fmt.Sprintf("spice: deck implies %d nodes but its cards reference at most %d (unreferenced nodes float)", e.Nodes, e.Refs)
}

// System rebuilds the folded nodal equations of the deck: the SPD
// conductance matrix (ties folded onto the diagonal) and the right-hand
// side (tie injections g·VDD minus load currents). Branch stamps replay
// through the same sparse.Builder the R-Mesh build uses, so the matrix
// structure of a round-tripped model matches the original exactly
// (sparse.StructureEqual) and the values match to reciprocal-rounding ulps.
func (nl *Netlist) System() (*sparse.CSR, []float64, error) {
	if nl.Nodes == 0 {
		return nil, nil, fmt.Errorf("spice: deck references no mesh nodes")
	}
	if len(nl.Ties) == 0 {
		return nil, nil, fmt.Errorf("spice: deck has no supply ties (singular system)")
	}
	if refs := 2*len(nl.Branches) + len(nl.Ties) + len(nl.Loads); nl.Nodes > refs {
		return nil, nil, &UnreferencedNodesError{Nodes: nl.Nodes, Refs: refs}
	}
	b := sparse.NewBuilder(nl.Nodes)
	rhs := make([]float64, nl.Nodes)
	for _, br := range nl.Branches {
		b.AddConductance(br.N1, br.N2, 1/br.R)
	}
	for _, t := range nl.Ties {
		g := 1 / t.R
		b.AddToGround(t.N1, g)
		rhs[t.N1] += g * nl.VDD
	}
	for _, ld := range nl.Loads {
		rhs[ld.Node] -= ld.I
	}
	return b.Compress(), rhs, nil
}

// Solve rebuilds the deck's nodal system and solves it with the method
// selected in opt, returning the node voltage vector.
func (nl *Netlist) Solve(opt solve.Options) ([]float64, solve.CGStats, error) {
	a, rhs, err := nl.System()
	if err != nil {
		return nil, solve.CGStats{}, err
	}
	s, err := solve.New(a, opt)
	if err != nil {
		return nil, solve.CGStats{}, err
	}
	return s.Solve(rhs, opt.CGOptions)
}
