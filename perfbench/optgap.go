package main

import (
	"fmt"
	"time"

	"slms/internal/backend"
	"slms/internal/bench"
	"slms/internal/ims"
	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/sched"
	"slms/internal/source"
)

// optgapLoops is the number of counted loop bodies in the corpus.
const optgapLoops = 36

func runOptgap(cfg runConfig) (*result, error) {
	r := &result{}
	var corpus []bench.Kernel
	var setupErr error
	setup := timeSetups(func() {
		bench.ResetHarnessState()
		corpus = bench.OptgapCorpus()
		// Warm up every code path of the census at the small budget.
		_, _, setupErr = bench.OptgapCensus(corpus, "quick")
	})
	if setupErr != nil {
		return nil, setupErr
	}

	// One op is the census of one kernel's loops; a pass runs every
	// kernel of the corpus once, in order. The first pass is the
	// reference: it must count every loop, and every later op, traced
	// replays included, must reach its verdicts and IIs.
	ref := make([][]bench.OptgapRow, len(corpus))
	var want bench.OptgapStat
	check := func(k int, rows []bench.OptgapRow, err error) {
		r.Attempted++
		ok := err == nil
		for _, row := range rows {
			ok = ok && row.ExactII <= row.HeurII
		}
		if ok && ref[k] != nil {
			ok = sameVerdicts(rows, ref[k])
		}
		if !ok {
			r.Failed++
			r.Unexplained++
			r.note(fmt.Sprintf("op %d (%s) failed: err %v", r.Attempted, corpus[k].Name, err))
			return
		}
		if ref[k] == nil {
			ref[k] = append([]bench.OptgapRow{}, rows...)
		}
	}
	var rss rssMark
	loop := func(d time.Duration, op func(k int) ([]bench.OptgapRow, bench.OptgapStat, error)) *timing {
		t := startTiming(len(corpus))
		deadline := t.start.Add(d)
		for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
			for k := range corpus {
				t0 := time.Now()
				rows, st, err := op(k)
				t.add(k, time.Since(t0))
				check(k, rows, err)
				if pass == 0 {
					addStat(&want, st)
				}
			}
			rss.take()
		}
		if want.Loops != optgapLoops {
			r.Failed++
			r.Unexplained++
			r.note(fmt.Sprintf("the census counted %d loops, want %d", want.Loops, optgapLoops))
		}
		return t
	}
	census := func(k int) ([]bench.OptgapRow, bench.OptgapStat, error) {
		return bench.OptgapCensus(corpus[k:k+1], "standard")
	}

	if !cfg.trace {
		t := loop(time.Duration(cfg.seconds*float64(time.Second)), census)
		r.reportEndToEnd(setup, t, &rss, "1 pass")
		r.note(fmt.Sprintf("%d kernels per pass; proven_ratio: %d/%d proven optimal (gaps %d, budget-exhausted %d); ii_sum: %d",
			len(corpus), want.ProvenOptimal, want.Loops, want.Gaps, want.Budget, iiSum(want.Rows)))
		return r, nil
	}

	td := &traceData{layers: newTracer()}
	heapStart := liveHeapBytes()
	gc0 := readGC()
	ut := loop(passDeadline(cfg), census)
	gc1 := readGC()
	td.setUntraced(ut, heapStart, gc0, gc1)
	if want.Loops > 0 {
		td.provenRatio = float64(want.ProvenOptimal) / float64(want.Loops)
		td.iiSum = float64(iiSum(want.Rows))
	}
	want = bench.OptgapStat{}
	op := 0
	td.traced = loop(passDeadline(cfg), func(k int) ([]bench.OptgapRow, bench.OptgapStat, error) {
		rows, st, err := replayOptgap(td.layers, op, corpus[k:k+1])
		op++
		return rows, st, err
	}).fastest()
	td.layers.ops = op
	td.report(r)
	return r, writeSpans(cfg, td.layers, "layers")
}

// addStat adds one kernel's census to a pass's.
func addStat(sum *bench.OptgapStat, st bench.OptgapStat) {
	sum.Loops += st.Loops
	sum.ProvenOptimal += st.ProvenOptimal
	sum.Gaps += st.Gaps
	sum.ExactOnly += st.ExactOnly
	sum.Budget += st.Budget
	sum.Infeasible += st.Infeasible
	sum.MaxGap = max(sum.MaxGap, st.MaxGap)
	sum.Rows = append(sum.Rows, st.Rows...)
}

func sameVerdicts(a, b []bench.OptgapRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kernel != b[i].Kernel || a[i].Verdict != b[i].Verdict ||
			a[i].HeurII != b[i].HeurII || a[i].ExactII != b[i].ExactII {
			return false
		}
	}
	return true
}

// replayOptgap is bench.OptgapCensus spelled out layer by layer, with a
// span around each call: parse, lower + CSE, the heuristic II search,
// and the exact prover with the census's budget and II bound.
func replayOptgap(tr *tracer, op int, corpus []bench.Kernel) ([]bench.OptgapRow, bench.OptgapStat, error) {
	var st bench.OptgapStat
	d := machine.IA64Like()
	heur, err := ims.EffortConfig("", "")
	if err != nil {
		return nil, st, err
	}
	proveCfg, err := ims.EffortConfig("", "standard")
	if err != nil {
		return nil, st, err
	}
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	for _, k := range corpus {
		var prog *source.Program
		tr.do("source.parse", op, root, func(int) { prog, err = source.Parse(k.Source) })
		if err != nil {
			return nil, st, fmt.Errorf("%s: %w", k.Name, err)
		}
		var f *ir.Func
		tr.do("backend.lower", op, root, func(int) {
			f, err = backend.Compile(prog)
			if err == nil {
				tr.count("backend.lower.cse_removed", float64(backend.LocalCSE(f)))
			}
		})
		if err != nil {
			return nil, st, fmt.Errorf("%s: %w", k.Name, err)
		}
		loop := 0
		for _, b := range f.Blocks {
			tr.count("backend.lower.instrs", float64(len(b.Instrs)))
			if !b.IsLoopBody || !b.Counted {
				continue
			}
			loop++
			var res *ims.Result
			tr.do("ims.schedule", op, root, func(int) { res = ims.ScheduleWith(b, d, true, heur) })
			tr.count("ims.schedule.loops", 1)
			if res.OK {
				tr.count("ims.schedule.ok", 1)
				tr.count("ims.schedule.ii_over_mii", float64(res.II)/float64(max(res.ResMII, res.RecMII, 1)))
			}
			ins := b.Instrs
			if n := len(ins); n > 0 && ins[n-1].Op.IsBranch() {
				ins = ins[:n-1]
			}
			if len(ins) == 0 {
				continue
			}
			var o *sched.Optimality
			tr.do("sched.prove", op, root, func(int) {
				g := ims.BuildGraph(ins, d, true)
				maxII := max(res.ResMII, res.RecMII, 1) + len(ins) + 8
				o = sched.Prove(g, d, proveCfg.Prove, res.II, maxII)
			})
			lb := max(res.ResMII, res.RecMII, 1)
			tr.count("sched.prove.loops", 1)
			tr.count("sched.prove.nodes", float64(o.Visited))
			if res.II > lb {
				tr.count("sched.prove.probes", float64(res.II-lb))
			}
			if o.Verdict == sched.VerdictBudget {
				tr.count("sched.prove.budget", 1)
			}
			row := bench.OptgapRow{Kernel: k.Name, Suite: k.Suite, Loop: loop, Verdict: o.Verdict,
				HeurII: o.HeurII, ExactII: o.ExactII, Gap: o.Gap, Cert: o.Cert}
			st.Rows = append(st.Rows, row)
			st.Loops++
			if o.Verdict == sched.VerdictOptimal {
				st.ProvenOptimal++
			}
		}
	}
	return st.Rows, st, nil
}

// iiSum is the sum of the heuristic's IIs over the census rows.
func iiSum(rows []bench.OptgapRow) int {
	n := 0
	for _, row := range rows {
		n += row.HeurII
	}
	return n
}
