package main

import (
	"fmt"

	"slms/internal/analysis"
	"slms/internal/backend"
	"slms/internal/core"
	"slms/internal/ims"
	"slms/internal/interp"
	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/pipeline"
	"slms/internal/prof"
	"slms/internal/sim"
	"slms/internal/source"
)

// The traced run replays a request through the public functions of each
// layer, in the order the handler reaches them, with a span around every
// call. The compile is spelled out layer by layer — lower + CSE,
// register allocation, list scheduling, modulo scheduling — because the
// pipeline calls those layers from one unexported function. Replayed
// cycle counts are checked against the handler's replies.

// replayer runs replays under one tracer.
type replayer struct {
	tr *tracer
	op int
}

// replayRequest replays one serve request. It returns the base + SLMS
// cycles of a schedule or profile replay (0 for the other endpoints).
func (rp *replayer) replayRequest(parent int, endpoint, src string, t target) (int64, error) {
	var prog *source.Program
	var err error
	rp.tr.do("source.parse", rp.op, parent, func(int) { prog, err = source.Parse(src) })
	if err != nil {
		return 0, err
	}
	opts := core.DefaultOptions()
	switch endpoint {
	case "compile":
		_, err = rp.transform(parent, prog, opts)
		return 0, err
	case "explain":
		rp.verify(parent, prog, opts)
		_, err = rp.transform(parent, prog, opts)
		return 0, err
	}
	d, err := machine.ByName(t.machine)
	if err != nil {
		return 0, err
	}
	cc, err := pipeline.CompilerByName(t.compiler, false)
	if err != nil {
		return 0, err
	}
	if endpoint == "profile" {
		prof.SetEnabled(true)
		defer prof.SetEnabled(false)
	}
	return rp.experiment(parent, prog, d, cc, opts, nil)
}

// experiment replays pipeline.RunExperiments for one option set: the
// base leg, the transform, and the SLMS leg.
func (rp *replayer) experiment(parent int, prog *source.Program, d *machine.Desc, cc pipeline.Compiler,
	opts core.Options, setup func(*interp.Env)) (int64, error) {
	base, err := rp.compileAndRun(parent, prog, d, cc, setup)
	if err != nil {
		return 0, fmt.Errorf("base run: %w", err)
	}
	transformed, err := rp.transform(parent, prog, opts)
	if err != nil {
		return 0, err
	}
	slms, err := rp.compileAndRun(parent, transformed, d, cc, setup)
	if err != nil {
		return 0, fmt.Errorf("slms run: %w", err)
	}
	return base + slms, nil
}

func (rp *replayer) transform(parent int, prog *source.Program, opts core.Options) (*source.Program, error) {
	var out *source.Program
	var results []*core.Result
	var err error
	rp.tr.do("core.transform", rp.op, parent, func(int) {
		out, results, err = core.TransformProgramCachedSpan(nil, prog, opts)
	})
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		rp.tr.count("core.transform.loops", 1)
		if r.Applied {
			rp.tr.count("core.transform.applied", 1)
		}
	}
	return out, nil
}

func (rp *replayer) verify(parent int, prog *source.Program, opts core.Options) {
	var rep *analysis.Report
	var err error
	rp.tr.do("analysis.verify", rp.op, parent, func(int) {
		rep, err = analysis.LintProgram("request", prog, analysis.LintOptions{Core: opts})
	})
	if err == nil {
		rp.tr.count("analysis.verify.applied", float64(rep.Summary.Applied))
		rp.tr.count("analysis.verify.proved", float64(rep.Summary.Proved))
	}
}

// compileAndRun compiles prog layer by layer, predecodes it and
// simulates it from a fresh environment; it returns the cycles.
func (rp *replayer) compileAndRun(parent int, prog *source.Program, d *machine.Desc, cc pipeline.Compiler,
	setup func(*interp.Env)) (int64, error) {
	var f *ir.Func
	var plan *sim.Plan
	var err error
	rp.tr.do("pipeline.compile", rp.op, parent, func(id int) {
		f, plan, err = rp.compile(id, prog, d, cc)
	})
	if err != nil {
		return 0, err
	}
	var pd *sim.Predecoded
	rp.tr.do("sim.predecode", rp.op, parent, func(int) { pd = sim.Predecode(f, d, plan, prof.Enabled()) })
	env := interp.NewEnv()
	if setup != nil {
		setup(env)
	}
	var m *sim.Metrics
	rp.tr.do("sim.run", rp.op, parent, func(int) { m, err = pd.Run(env, 0) })
	if err != nil {
		return 0, err
	}
	rp.tr.count("sim.run.cycles", float64(m.Cycles))
	return m.Cycles, nil
}

// compile mirrors the pipeline's compile of one program: lowering and
// local CSE, register allocation, then per block list scheduling (with
// the reordering applied, as -O3 compilers do) and modulo scheduling
// of counted loop bodies on strong static compilers.
func (rp *replayer) compile(parent int, prog *source.Program, d *machine.Desc, cc pipeline.Compiler) (*ir.Func, *sim.Plan, error) {
	imsCfg, err := pipeline.SchedulerConfig(cc.Scheduler, cc.Effort)
	if err != nil {
		return nil, nil, err
	}
	var f *ir.Func
	rp.tr.do("backend.lower", rp.op, parent, func(int) {
		f, err = backend.Compile(prog)
		if err == nil {
			rp.tr.count("backend.lower.cse_removed", float64(backend.LocalCSE(f)))
		}
	})
	if err != nil {
		return nil, nil, err
	}
	for _, b := range f.Blocks {
		rp.tr.count("backend.lower.instrs", float64(len(b.Instrs)))
	}
	rp.tr.do("backend.regalloc", rp.op, parent, func(int) {
		a := backend.Allocate(f, d)
		rp.tr.count("backend.regalloc.spills", float64(a.SpilledRegs))
	})
	plan := &sim.Plan{Blocks: make([]sim.BlockTiming, len(f.Blocks))}
	for _, b := range f.Blocks {
		var bs *backend.BlockSched
		rp.tr.do("backend.listsched", rp.op, parent, func(int) {
			if cc.Reorder {
				applyOrder(b, backend.ListSchedule(b, d, cc.Tags, cc.Window))
			}
			bs = backend.SequentialSchedule(b, d)
		})
		rp.tr.count("backend.listsched.blocks", 1)
		if d.Policy == machine.Static {
			plan.Blocks[b.ID].Sched = bs
		}
		if !b.IsLoopBody {
			continue
		}
		if n := len(b.Instrs); n > 0 && b.Instrs[n-1].Op == ir.Br {
			if head := b.Instrs[n-1].Target; head >= 0 && head < len(plan.Blocks) {
				plan.Blocks[head].LoopHead = true
				plan.Blocks[head].BodyID = b.ID
			}
		}
		if cc.IMS && d.Policy == machine.Static && b.Counted {
			rp.tr.do("ims.schedule", rp.op, parent, func(int) {
				r := ims.ScheduleWith(b, d, cc.Tags, imsCfg)
				rp.tr.count("ims.schedule.loops", 1)
				if r.OK {
					plan.Blocks[b.ID].IMS = r
					rp.tr.count("ims.schedule.ok", 1)
					rp.tr.count("ims.schedule.ii_over_mii", float64(r.II)/float64(max(r.ResMII, r.RecMII, 1)))
				}
			})
		}
	}
	return f, plan, nil
}

// applyOrder permutes a block's instructions into schedule order,
// stable by cycle then original index, as the pipeline does.
func applyOrder(b *ir.Block, s *backend.BlockSched) {
	type slot struct{ cycle, idx int }
	n := len(b.Instrs)
	slots := make([]slot, n)
	for i := range b.Instrs {
		slots[i] = slot{s.CycleOf[i], i}
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && (slots[j].cycle < slots[j-1].cycle ||
			(slots[j].cycle == slots[j-1].cycle && slots[j].idx < slots[j-1].idx)); j-- {
			slots[j], slots[j-1] = slots[j-1], slots[j]
		}
	}
	out := make([]*ir.Instr, n)
	for k, sl := range slots {
		out[k] = b.Instrs[sl.idx]
	}
	b.Instrs = out
}
