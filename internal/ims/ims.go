// Package ims implements machine-level iterative modulo scheduling
// (Rau, MICRO 1994) over the virtual ISA: the optimization the paper's
// strong final compilers (ICC, XLC) apply to innermost loops, and the
// baseline SLMS is compared against. The driver computes ResMII/RecMII
// from the instruction-level dependence graph (using the affine memory
// tags for disambiguation), then probes candidate IIs upward with the
// Rau-style height-priority heuristic. With an exact backend configured
// (an effort level), the heuristic's schedule becomes the incumbent and
// the exact search probes only the IIs below it: each probe refutes
// that II with a certificate or returns a better schedule. Schedules
// whose register pressure exceeds the machine file are rejected — the
// failure mode of the paper's Figure 11.
package ims

import (
	"fmt"

	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/sched"
	"slms/internal/sched/exact"
	"slms/internal/source"
)

// Result describes a modulo-scheduling attempt on one loop body.
type Result struct {
	OK         bool
	Reason     string // why scheduling was rejected, when !OK
	II         int    // initiation interval (cycles per iteration)
	SL         int    // schedule length of one iteration (fill/drain cost)
	Stages     int
	ResMII     int
	RecMII     int
	PressInt   int // estimated integer register pressure
	PressFloat int
	// Opt is the optimality verdict when an exact backend ran
	// (Config.Prove); nil otherwise.
	Opt *sched.Optimality
}

// Config configures the exact refutation for one Schedule call.
type Config struct {
	// Prove, when non-nil, is the exact backend that probes every II
	// below the heuristic's incumbent, attaching the optimality verdict
	// (Result.Opt) and adopting a better schedule it finds when that
	// schedule also fits the register file.
	Prove sched.Scheduler
}

// EffortConfig resolves a scheduler name and effort level into a driver
// configuration — the single validation point the pipeline, the CLIs
// and slmsd share. Effort "" runs the heuristic alone; "quick" (a small
// budget), "standard" (the exact backend's default) and "max"
// (unlimited) set the refutation budget of the exact search below the
// heuristic's II. The scheduler name "exact" is shorthand for effort
// "standard" when no effort is given; "" and "ims" change nothing.
func EffortConfig(scheduler, effort string) (Config, error) {
	switch scheduler {
	case "", "ims":
	case "exact":
		if effort == "" {
			effort = "standard"
		}
	default:
		return Config{}, fmt.Errorf("unknown scheduler %q (want one of [exact ims])", scheduler)
	}
	var budget int
	switch effort {
	case "":
		return Config{}, nil
	case "standard":
		budget = 0
	case "quick":
		budget = 20_000
	case "max":
		budget = -1
	default:
		return Config{}, fmt.Errorf("unknown effort %q (want quick, standard or max)", effort)
	}
	return Config{Prove: &exact.Sched{Budget: budget}}, nil
}

// Schedule modulo-schedules the body block of an innermost loop with
// the heuristic alone. useTags enables affine memory disambiguation.
func Schedule(b *ir.Block, d *machine.Desc, useTags bool) *Result {
	return ScheduleWith(b, d, useTags, Config{})
}

// ScheduleWith is Schedule with an explicit configuration.
func ScheduleWith(b *ir.Block, d *machine.Desc, useTags bool, cfg Config) *Result {
	return scheduleWith(b, d, useTags, cfg, heuristic)
}

// scheduleWith is the II-search driver over a placement function
// (heuristic, or a test fake): the lowest II from the analytic bound up
// to which place succeeds is the incumbent, and cfg.Prove refutes or
// improves on it.
func scheduleWith(b *ir.Block, d *machine.Desc, useTags bool, cfg Config,
	place func(*sched.Graph, *machine.Desc, int) *sched.Schedule) *Result {
	ins := withoutBranch(b.Instrs)
	n := len(ins)
	res := &Result{}
	if n == 0 {
		res.Reason = "empty body"
		return res
	}
	g := BuildGraph(ins, d, useTags)

	res.ResMII = sched.ResourceMinII(g, d)
	res.RecMII = sched.RecurrenceMinII(g, 4*n+16)
	if res.RecMII == 0 {
		res.RecMII = -1
		res.Reason = "no feasible II (unresolvable recurrence)"
		return res
	}
	start := max(res.ResMII, res.RecMII, 1)
	maxII := start + n + 8
	var sc *sched.Schedule
	for ii := start; ii <= maxII && sc == nil; ii++ {
		sc = place(g, d, ii)
	}
	if cfg.Prove != nil {
		if sched.Check(g, d, sc) != nil {
			sc = nil
		}
		heurII := 0
		if sc != nil {
			heurII = sc.II
		}
		res.Opt = sched.Prove(g, d, cfg.Prove, heurII, maxII)
		// A better schedule replaces the incumbent only if it also fits
		// the register files.
		if better := res.Opt.Schedule; better != nil {
			if pInt, pFloat := pressure(ins, better.Time, better.II); pInt <= d.IntRegs && pFloat <= d.FPRegs {
				sc = better
			}
		}
	}
	if sc == nil {
		res.Reason = fmt.Sprintf("no schedule up to II=%d", maxII)
		return res
	}
	sl := 0
	for i, t := range sc.Time {
		sl = max(sl, t+g.Nodes[i].Lat)
	}
	res.II = sc.II
	res.SL = sl + d.Lat.Branch
	res.Stages = (res.SL + sc.II - 1) / sc.II
	res.PressInt, res.PressFloat = pressure(ins, sc.Time, sc.II)
	if res.PressInt > d.IntRegs || res.PressFloat > d.FPRegs {
		res.Reason = fmt.Sprintf("register pressure (%d int / %d fp) exceeds file (%d/%d)",
			res.PressInt, res.PressFloat, d.IntRegs, d.FPRegs)
		return res
	}
	res.OK = true
	return res
}

func withoutBranch(ins []*ir.Instr) []*ir.Instr {
	if len(ins) > 0 && ins[len(ins)-1].Op.IsBranch() {
		return ins[:len(ins)-1]
	}
	return ins
}

// pressure estimates register pressure of the pipelined schedule: each
// value's lifetime (def to last use, plus II per carried-dependence
// distance) spans ceil(lifetime/II) concurrent copies.
func pressure(ins []*ir.Instr, sigma []int, ii int) (pInt, pFloat int) {
	lastUse := map[int]int{} // reg -> latest consuming time
	defTime := map[int]int{}
	defType := map[int]source.Type{}
	for i, in := range ins {
		if in.Dst >= 0 {
			defTime[in.Dst] = sigma[i]
			defType[in.Dst] = in.Type
		}
	}
	for j, in := range ins {
		for _, r := range in.Uses() {
			dt, ok := defTime[r]
			if !ok {
				continue
			}
			use := sigma[j]
			if use < dt {
				use += ii // consumed by the next iteration's slot
			}
			if use > lastUse[r] {
				lastUse[r] = use
			}
		}
	}
	for r, dt := range defTime {
		lu, ok := lastUse[r]
		if !ok {
			lu = dt + 1
		}
		life := lu - dt
		if life < 1 {
			life = 1
		}
		copies := (life + ii - 1) / ii
		if defType[r] == source.TFloat {
			pFloat += copies
		} else {
			pInt += copies
		}
	}
	return pInt, pFloat
}
