package pipeline_test

import (
	"sync/atomic"
	"testing"

	"slms/internal/analysis"
	"slms/internal/bench"
	"slms/internal/core"
	"slms/internal/ims"
	"slms/internal/interp"
	"slms/internal/machine"
	"slms/internal/pipeline"
	"slms/internal/sched"
	"slms/internal/sched/exact"
	"slms/internal/source"
)

// The cross-scheduler differential battery: every corpus kernel, under
// all five standard SLMS option sets, is scheduled by the one
// modulo-scheduling driver both with the heuristic alone and with the
// exact refutation below the heuristic's II, asserting
//
//	(a) analysis.VerifyResult statically proves every applied SLMS
//	    transformation feeding the driver,
//	(b) per loop body, the exact leg schedules every loop the heuristic
//	    schedules, and its II never exceeds the heuristic's — the
//	    heuristic's schedule is the incumbent, so a higher II would be
//	    a driver bug, whatever the refutation budget,
//	(c) observable program behavior is identical across both legs and
//	    against the reference interpreter (the differential check; the
//	    heuristic leg's RunExperiments additionally compares every
//	    transformed run against its base run internally).
//
// The cross in (b) runs at the machine level, directly on the loop-body
// blocks of the compiled base + option-set artifacts — the pipeline and
// simulator around them are identical per leg, so re-simulating the
// whole corpus twice would only re-measure what (c) already established
// once per kernel. The exact leg's end-to-end run in (c) covers one
// representative kernel per suite plus the known-gap loops, where it
// adopts the better schedule the exact search finds. Kernel subtests
// run in parallel, so `go test -race` exercises the artifact cache, the
// cached transform store, and both legs concurrently.

// batteryOptionSets mirrors the corpus configurations the analysis
// tests verify under: paper defaults, filter off, scalar expansion,
// guard elision, and speculation.
func batteryOptionSets() []core.Options {
	mve := core.DefaultOptions()
	noFilter := core.DefaultOptions()
	noFilter.Filter = false
	arr := noFilter
	arr.Expansion = core.ExpandScalar
	noGuard := noFilter
	noGuard.NoGuard = true
	spec := noFilter
	spec.Speculate = true
	return []core.Options{mve, noFilter, arr, noGuard, spec}
}

var batteryOptionNames = []string{"default", "nofilter", "scalarexpand", "noguard", "speculate"}

// exactEndToEnd names the kernels whose exact leg also runs the full
// compile+simulate pipeline: one per suite, plus the loops where the
// exact search provably beats the heuristic.
var exactEndToEnd = map[string]bool{
	"kernel1":   true, // livermore
	"kernel21":  true, // livermore, real-corpus gap
	"daxpy":     true, // linpack
	"cholsky":   true, // nas
	"stone1":    true, // stone
	"heurmiss":  true, // optgap, search-found gap
	"heurmiss2": true, // optgap, search-found gap
}

func TestCrossSchedulerBattery(t *testing.T) {
	kernels := bench.OptgapCorpus()
	if testing.Short() {
		// A representative slice: two plain corpus kernels plus the two
		// search-found loops where the heuristic provably misses the
		// minimal II (the strict-win witnesses).
		var subset []bench.Kernel
		for _, k := range kernels {
			switch k.Name {
			case "kernel1", "kernel21", "heurmiss", "heurmiss2":
				subset = append(subset, k)
			}
		}
		kernels = subset
	}
	d := machine.IA64Like()
	heurCC := pipeline.StrongO3
	heurCC.Scheduler = "ims"
	exactCC := pipeline.StrongO3
	exactCC.Scheduler = "exact"
	// Quick effort keeps the exact end-to-end leg tractable across the
	// whole corpus under -race.
	exactCC.Effort = "quick"

	heurCfg, err := ims.EffortConfig("ims", "")
	if err != nil {
		t.Fatal(err)
	}
	// The per-loop cross visits every loop of every artifact, so its
	// exact search gets a small budget; the known heuristic misses are
	// rediscovered even here.
	exactCfg := ims.Config{Prove: &exact.Sched{Budget: 500}}

	var strictWins atomic.Int64
	t.Run("kernels", func(t *testing.T) {
		for _, k := range kernels {
			k := k
			t.Run(k.Suite+"/"+k.Name, func(t *testing.T) {
				t.Parallel()
				prog := source.MustParse(k.Source)

				// Reference semantics: the pure interpreter.
				ref := interp.NewEnv()
				if k.Setup != nil {
					k.Setup(ref)
				}
				if err := interp.Run(prog, ref); err != nil {
					t.Fatalf("interp: %v", err)
				}

				// (c) end to end: the program compiled under each backend
				// behaves exactly like the interpreter.
				legs := []struct {
					name string
					cc   pipeline.Compiler
				}{{"ims", heurCC}}
				if exactEndToEnd[k.Name] {
					legs = append(legs, struct {
						name string
						cc   pipeline.Compiler
					}{"exact", exactCC})
				}
				for _, leg := range legs {
					env := interp.NewEnv()
					if k.Setup != nil {
						k.Setup(env)
					}
					if _, _, err := pipeline.Run(prog, d, leg.cc, env); err != nil {
						t.Fatalf("[%s] pipeline: %v", leg.name, err)
					}
					delete(env.Arrays, "__spill")
					if diffs := interp.Compare(ref, env, interp.CompareOpts{FloatTol: 1e-9}); len(diffs) > 0 {
						t.Errorf("[%s] diverges from the interpreter: %v", leg.name, diffs)
					}
				}

				// All five SLMS option sets through the full measurement
				// harness once: RunExperiments is itself a differential
				// check (each transformed run compared against the shared
				// base run), and its artifacts carry the compiled loop
				// bodies the scheduler cross below works on.
				outs, errs, err := pipeline.RunExperiments(prog, d, heurCC, batteryOptionSets(), k.Setup)
				if err != nil {
					t.Fatalf("base run: %v", err)
				}
				arts := []*pipeline.Artifact{}
				for i, oerr := range errs {
					if oerr != nil {
						t.Errorf("[%s] %v", batteryOptionNames[i], oerr)
					}
					if outs[i] == nil {
						continue
					}
					// (a) every applied transformation proves statically.
					// The transform cache is shared, so these are the same
					// results either backend would compile.
					for _, r := range outs[i].Results {
						if r == nil || !r.Applied {
							continue
						}
						if v := analysis.VerifyResult(r); v.Status != analysis.StatusProved {
							t.Errorf("[%s] loop at %v: transformation not proved (%v): %v",
								batteryOptionNames[i], r.Pos, v.Status, v.Notes)
						}
					}
					if i == 0 && outs[i].BaseArt != nil {
						arts = append(arts, outs[i].BaseArt)
					}
					arts = append(arts, outs[i].SLMSArt)
				}

				// (b) the scheduler cross: every counted loop body of every
				// artifact, scheduled by both backends.
				pairs := 0
				for ai, art := range arts {
					if art == nil {
						continue
					}
					for _, b := range art.Func.Blocks {
						if !b.IsLoopBody || !b.Counted {
							continue
						}
						hr := ims.ScheduleWith(b, d, true, heurCfg)
						er := ims.ScheduleWith(b, d, true, exactCfg)
						if !hr.OK {
							continue
						}
						pairs++
						switch {
						case !er.OK:
							t.Errorf("artifact %d block %d: heuristic scheduled at II %d, exact leg lost the schedule: %s",
								ai, b.ID, hr.II, er.Reason)
						case er.II > hr.II:
							t.Errorf("artifact %d block %d: exact II %d exceeds heuristic II %d",
								ai, b.ID, er.II, hr.II)
						case er.II < hr.II:
							strictWins.Add(1)
						}
					}
				}
				if pairs == 0 {
					t.Logf("no modulo-scheduled loop pair for %s (all rejected or non-counted)", k.Name)
				}
			})
		}
	})
	if strictWins.Load() == 0 {
		t.Errorf("no loop where the exact search strictly beat the heuristic's II — " +
			"the heurmiss kernels should each provide one")
	} else {
		t.Logf("exact search strictly beat the heuristic on %d loop/artifact pairs", strictWins.Load())
	}
}

// TestSchedulerBackendsAgreeOnOptimality cross-checks the verdict
// plumbing on one known-gap kernel: the scheduler=exact shorthand must
// compile to the same IIs as effort=standard, and where the exact
// search found a gap the driver must have adopted the proven-minimal
// II.
func TestSchedulerBackendsAgreeOnOptimality(t *testing.T) {
	var gap bench.Kernel
	for _, k := range bench.OptgapKernels() {
		if k.Name == "heurmiss" {
			gap = k
		}
	}
	if gap.Name == "" {
		t.Fatal("heurmiss kernel missing from the optgap corpus")
	}
	d := machine.IA64Like()
	prog := source.MustParse(gap.Source)

	heurCC := pipeline.StrongO3
	heurCC.Scheduler = "ims"
	heurCC.Effort = "standard"
	exactCC := pipeline.StrongO3
	exactCC.Scheduler = "exact"

	run := func(cc pipeline.Compiler) *pipeline.Artifact {
		env := interp.NewEnv()
		gap.Setup(env)
		_, art, err := pipeline.Run(prog, d, cc, env)
		if err != nil {
			t.Fatalf("%s: %v", cc.Scheduler, err)
		}
		return art
	}
	heurArt, exactArt := run(heurCC), run(exactCC)

	checked := 0
	for id, h := range heurArt.IMSResults {
		e := exactArt.IMSResults[id]
		if h == nil || e == nil || !h.OK || !e.OK || h.Opt == nil {
			continue
		}
		checked++
		if e.II != h.II {
			t.Errorf("block %d: scheduler=exact achieved II=%d, effort=standard II=%d", id, e.II, h.II)
		}
		if h.Opt.Verdict == sched.VerdictGap && h.II != h.Opt.ExactII {
			t.Errorf("block %d: prover says minimal II=%d, driver kept II=%d", id, h.Opt.ExactII, h.II)
		}
		if e.Opt == nil || e.Opt.Verdict == "" {
			t.Errorf("block %d: exact leg returned no optimality verdict", id)
		}
	}
	if checked == 0 {
		t.Fatal("no modulo-scheduled loop with a prover verdict to cross-check")
	}
}
