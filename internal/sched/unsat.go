package sched

import (
	"fmt"
	"strings"

	"slms/internal/machine"
	"slms/internal/mii"
)

// UnsatKind classifies an infeasibility certificate.
type UnsatKind int

const (
	// UnsatCycle: a dependence cycle whose total latency exceeds
	// II·(total distance) — no assignment of issue times can satisfy
	// it. The cheap, independently re-checkable certificate.
	UnsatCycle UnsatKind = iota
	// UnsatResource: a functional-unit class (or the issue width) has
	// more instructions than II rows can hold — the counting bound.
	UnsatResource
	// UnsatSearch: the branch-and-bound enumeration of residue
	// assignments completed with every branch refuted. The certificate
	// is the completed search itself (Visited records its size);
	// re-checking means re-running the deterministic enumeration.
	UnsatSearch
)

func (k UnsatKind) String() string {
	switch k {
	case UnsatCycle:
		return "cycle"
	case UnsatResource:
		return "resource"
	case UnsatSearch:
		return "search"
	}
	return "?"
}

// Unsat is a proof that no modulo schedule exists at II. It is the
// error an exact backend returns for a refuted II; Prove records the
// one at II−1 as the optimality certificate.
type Unsat struct {
	II   int
	Kind UnsatKind
	// Cycle is the infeasible constraint cycle (UnsatCycle): closed in
	// the graph, with sum(Lat) > II·sum(Dist).
	Cycle []Edge
	// FU/Count/Units describe the overflowing class (UnsatResource);
	// FU = -1 means the issue width itself overflowed.
	FU    int
	Count int
	Units int
	// Visited is the number of branch-and-bound nodes the completed
	// refutation expanded (UnsatSearch).
	Visited int
}

func (u *Unsat) Error() string { return "sched: " + u.Describe() }

// Describe renders the certificate for diagnostics: what forbids II.
func (u *Unsat) Describe() string {
	switch u.Kind {
	case UnsatCycle:
		var delay, dist int64
		for _, e := range u.Cycle {
			delay += e.Lat
			dist += e.Dist
		}
		return fmt.Sprintf("II=%d infeasible: recurrence %s needs %d cycles over distance %d (II ≥ %d)",
			u.II, CycleString(u.Cycle), delay, dist, (delay+max64(dist, 1)-1)/max64(dist, 1))
	case UnsatResource:
		if u.FU < 0 {
			return fmt.Sprintf("II=%d infeasible: %d instructions exceed %d issue slots over %d rows",
				u.II, u.Count, u.Units, u.II)
		}
		return fmt.Sprintf("II=%d infeasible: %d %v instructions exceed %d unit(s) over %d rows",
			u.II, u.Count, machine.FU(u.FU), u.Units, u.II)
	case UnsatSearch:
		return fmt.Sprintf("II=%d infeasible: exhaustive slot-assignment search refuted every branch (%d nodes)",
			u.II, u.Visited)
	}
	return fmt.Sprintf("II=%d infeasible", u.II)
}

// ResourceUnsat is the counting certificate at ii: a functional-unit
// class (or the issue width) with more instructions than ii rows can
// hold. Nil when every class fits.
func ResourceUnsat(g *Graph, d *machine.Desc, ii int) *Unsat {
	var counts [4]int
	for _, n := range g.Nodes {
		counts[n.FU]++
	}
	for fu, c := range counts {
		if units := UnitsOf(d, machine.FU(fu)); c > ii*units {
			return &Unsat{II: ii, Kind: UnsatResource, FU: fu, Count: c, Units: units, Visited: 1}
		}
	}
	if iw := IssueWidthOf(d); len(g.Nodes) > ii*iw {
		return &Unsat{II: ii, Kind: UnsatResource, FU: -1, Count: len(g.Nodes), Units: iw, Visited: 1}
	}
	return nil
}

// CycleUnsat is the recurrence certificate at ii: a dependence cycle
// whose total latency exceeds ii·(total distance), which no assignment
// of issue times satisfies regardless of resources. The edges are
// copied field-for-field from the graph, so Recheck's membership test
// verifies them exactly. Nil when the recurrences alone admit ii.
func CycleUnsat(g *Graph, ii int) *Unsat {
	if ii < 1 {
		return nil
	}
	cyc := mii.BindingCycle(g.toDDG(), int64(ii))
	if cyc == nil {
		return nil
	}
	u := &Unsat{II: ii, Kind: UnsatCycle, Visited: 1}
	for _, e := range cyc {
		u.Cycle = append(u.Cycle, Edge{From: e.From, To: e.To, Dist: e.Dist, Lat: e.Delay})
	}
	return u
}

// CycleString renders a dependence cycle compactly.
func CycleString(cyc []Edge) string {
	if len(cyc) == 0 {
		return "(none)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n%d", cyc[0].From)
	for _, e := range cyc {
		fmt.Fprintf(&b, " →[lat=%d dist=%d] n%d", e.Lat, e.Dist, e.To)
	}
	return b.String()
}

// Recheck independently re-validates the certificate against the graph
// and machine it was issued for. Cycle and resource certificates are
// verified arithmetically; a search certificate cannot be re-derived
// here (re-running the enumeration is the exact backend's job), so only
// its shape is checked.
func (u *Unsat) Recheck(g *Graph, d *machine.Desc) error {
	if u.II < 1 {
		return fmt.Errorf("sched: certificate has invalid II=%d", u.II)
	}
	switch u.Kind {
	case UnsatCycle:
		if len(u.Cycle) == 0 {
			return fmt.Errorf("sched: empty cycle certificate")
		}
		var delay, dist int64
		for i, e := range u.Cycle {
			if !hasEdge(g, e) {
				return fmt.Errorf("sched: certificate edge %d->%d not in graph", e.From, e.To)
			}
			next := u.Cycle[(i+1)%len(u.Cycle)]
			if e.To != next.From {
				return fmt.Errorf("sched: certificate cycle broken at %d->%d", e.From, e.To)
			}
			delay += e.Lat
			dist += e.Dist
		}
		if delay <= int64(u.II)*dist {
			return fmt.Errorf("sched: certificate cycle is satisfiable at II=%d (delay %d ≤ %d·dist %d)",
				u.II, delay, u.II, dist)
		}
		return nil
	case UnsatResource:
		var counts [4]int
		total := 0
		for _, n := range g.Nodes {
			counts[n.FU]++
			total++
		}
		if u.FU < 0 {
			if total <= u.II*IssueWidthOf(d) {
				return fmt.Errorf("sched: issue-width certificate is satisfiable (%d ≤ %d·%d)",
					total, u.II, IssueWidthOf(d))
			}
			return nil
		}
		if u.FU >= len(counts) {
			return fmt.Errorf("sched: certificate names unknown FU %d", u.FU)
		}
		units := UnitsOf(d, machine.FU(u.FU))
		if counts[u.FU] <= u.II*units {
			return fmt.Errorf("sched: resource certificate is satisfiable (%d %v ≤ %d·%d)",
				counts[u.FU], machine.FU(u.FU), u.II, units)
		}
		return nil
	case UnsatSearch:
		if u.Visited <= 0 {
			return fmt.Errorf("sched: search certificate records no work")
		}
		return nil
	}
	return fmt.Errorf("sched: unknown certificate kind %d", u.Kind)
}

func hasEdge(g *Graph, e Edge) bool {
	for _, ge := range g.Edges {
		if ge == e {
			return true
		}
	}
	return false
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
