package sched

import (
	"errors"
	"fmt"

	"slms/internal/machine"
)

// Optimality verdicts. Every corpus loop the prover visits gets exactly
// one of these.
const (
	// VerdictOptimal: the heuristic's II is proven minimal — its
	// schedule witnesses that II, and every smaller II carries an UNSAT
	// certificate (or is below a lower bound that is its own
	// certificate).
	VerdictOptimal = "proven-optimal"
	// VerdictGap: the exact backend scheduled at a strictly smaller II
	// than the heuristic, with an UNSAT certificate at that II−1.
	VerdictGap = "gap"
	// VerdictBudget: the exact search ran out of budget before either
	// finding a schedule or refuting the II it was probing.
	VerdictBudget = "budget-exhausted"
	// VerdictExactOnly: the heuristic produced no schedule at all but
	// the exact backend found one (and proved it minimal).
	VerdictExactOnly = "exact-only"
	// VerdictInfeasible: no II up to the search bound admits a
	// schedule; the certificate names the binding recurrence.
	VerdictInfeasible = "infeasible"
)

// Optimality is the prover's verdict on one loop: how the heuristic's
// II compares to the proven-minimal one.
type Optimality struct {
	Verdict string `json:"verdict"`
	// HeurII is the heuristic's achieved II (0 = it produced none).
	HeurII int `json:"heur_ii,omitempty"`
	// ExactII is the proven-minimal II: HeurII when every smaller II
	// was refuted, the smaller II the exact backend scheduled at, or 0
	// when the proof was cut short or nothing is feasible.
	ExactII int `json:"exact_ii,omitempty"`
	// Gap is HeurII − ExactII when the exact backend strictly wins.
	Gap int `json:"gap,omitempty"`
	// Cert describes why ExactII−1 (or every probed II) is infeasible.
	Cert string `json:"cert,omitempty"`
	// Visited is the branch-and-bound effort the proof spent.
	Visited int `json:"visited,omitempty"`
	// Schedule is the exact backend's schedule at ExactII when it beat
	// the heuristic (VerdictGap, VerdictExactOnly); nil otherwise.
	Schedule *Schedule `json:"-"`
}

// Prove establishes the minimal feasible II of the graph with an exact
// backend and compares it against the heuristic's heurII (0 = the
// heuristic produced no schedule). A positive heurII is a witness: the
// heuristic's schedule already proves that II feasible, so Prove never
// searches at heurII or above. It probes IIs from the analytic lower
// bound up to heurII−1 (maxII without a witness): each probe either
// schedules — a better schedule, minimal since every smaller II is
// refuted — or yields an UNSAT certificate. Any other failure (a budget
// cut) ends the proof with VerdictBudget.
func Prove(g *Graph, d *machine.Desc, ex Scheduler, heurII, maxII int) *Optimality {
	if g.N() == 0 {
		return &Optimality{Verdict: VerdictOptimal, HeurII: heurII, ExactII: heurII,
			Cert: "empty body"}
	}
	hi := maxII
	if heurII > 0 {
		hi = heurII
	}
	recLB := RecurrenceMinII(g, hi)
	if recLB == 0 {
		// No II up to the bound beats the recurrence: infeasible, and
		// the positive cycle at the bound is the certificate.
		o := &Optimality{Verdict: VerdictInfeasible, HeurII: heurII}
		if u := CycleUnsat(g, hi); u != nil {
			o.Cert = u.Describe()
		}
		return o
	}
	lb := ResourceMinII(g, d)
	lastUnsat := ResourceUnsat(g, d, lb-1)
	if recLB > lb {
		lb = recLB
		lastUnsat = CycleUnsat(g, recLB-1)
	}

	visited := 0
	for ii := lb; ii <= hi; ii++ {
		if ii == heurII {
			return &Optimality{Verdict: VerdictOptimal, HeurII: heurII, ExactII: ii,
				Cert: certAt(ii, lastUnsat), Visited: visited}
		}
		s, err := ex.Schedule(g, d, ii)
		if s != nil {
			o := &Optimality{Verdict: VerdictExactOnly, HeurII: heurII, ExactII: ii,
				Cert: certAt(ii, lastUnsat), Visited: visited, Schedule: s}
			if heurII > 0 {
				o.Verdict, o.Gap = VerdictGap, heurII-ii
			}
			return o
		}
		var u *Unsat
		if !errors.As(err, &u) {
			var bd *Budget
			if errors.As(err, &bd) {
				visited += bd.Visited
			}
			return &Optimality{Verdict: VerdictBudget, HeurII: heurII, Visited: visited,
				Cert: fmt.Sprintf("no proof at II=%d (%d nodes expanded): %v", ii, visited, err)}
		}
		lastUnsat = u
		visited += u.Visited
	}
	// Without a witness, every II up to maxII was refuted.
	o := &Optimality{Verdict: VerdictInfeasible, HeurII: heurII, Visited: visited}
	if lastUnsat != nil {
		o.Cert = lastUnsat.Describe()
	}
	return o
}

// certAt renders why no II below ii is feasible: u is the certificate
// refuting ii−1.
func certAt(ii int, u *Unsat) string {
	if ii == 1 {
		return "II=1 is the unconditional minimum"
	}
	return u.Describe()
}
