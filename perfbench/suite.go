package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"slms/internal/backend"
	"slms/internal/bench"
	"slms/internal/core"
	"slms/internal/interp"
	"slms/internal/machine"
	"slms/internal/obs"
	"slms/internal/pipeline"
	"slms/internal/source"
)

// suiteCycles is the cycle count every regeneration of figures 14-22,
// caseA and caseB simulates; it has not changed since the suite was
// first reproduced, and a change must be explained.
const suiteCycles = 5_638_480

// suiteRSSOps is the quantum of work after which rss_mb is taken.
const suiteRSSOps = 5

func simCycles() int64 { return obs.Default.Snapshot().Counters["sim.cycles"] }

// suiteOp regenerates every figure from cold harness state, each figure
// on its own goroutine as the harness does, and returns the rendered
// tables and the cycles simulated. With a tracer, each figure is a span.
func suiteOp(ft *tracer, op int) ([]string, int64, time.Duration, error) {
	bench.ResetHarnessState()
	// Every op starts from the same, collected heap, so the collector's
	// pacing does not carry over from one op to the next.
	runtime.GC()
	c0 := simCycles()
	tables := make([]string, len(figureIDs))
	errs := make([]error, len(figureIDs))
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, id := range figureIDs {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sp := -1
			if ft != nil {
				sp = ft.begin("bench.figure."+id, op, -1)
			}
			f, err := bench.ByID(id)
			if ft != nil {
				ft.end(sp)
			}
			if err != nil {
				errs[i] = fmt.Errorf("figure %s: %w", id, err)
				return
			}
			tables[i] = f.Table()
		}(i, id)
	}
	wg.Wait()
	lat := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return nil, 0, lat, err
		}
	}
	return tables, simCycles() - c0, lat, nil
}

func runPaperSuite(cfg runConfig) (*result, error) {
	bench.SetWorkers(runtime.NumCPU())
	pipeline.SetParallelism(runtime.NumCPU())
	r := &result{}
	var ref []string
	var setupErr error
	setup := timeSetups(func() {
		ref, _, _, setupErr = suiteOp(nil, 0)
	})
	if setupErr != nil {
		return nil, setupErr
	}

	// check compares one op's output with the set-up render.
	var cycles []float64
	check := func(tables []string, cyc int64, err error) {
		r.Attempted++
		ok := err == nil && cyc == suiteCycles
		for i := range tables {
			ok = ok && tables[i] == ref[i]
		}
		if !ok {
			r.Failed++
			r.Unexplained++
			r.note(fmt.Sprintf("op %d failed: cycles %d (want %d), err %v", r.Attempted, cyc, suiteCycles, err))
		}
		cycles = append(cycles, float64(cyc))
	}

	var caches cacheCounts
	var rss rssMark
	loop := func(d time.Duration, ft *tracer) *timing {
		t := startTiming(1)
		deadline := t.start.Add(d)
		for op := 0; op == 0 || time.Now().Before(deadline); op++ {
			tables, cyc, lat, err := suiteOp(ft, op)
			// suiteOp starts from reset (zeroed) caches.
			caches.addDelta(cacheCounts{}, readCaches())
			t.add(0, lat)
			check(tables, cyc, err)
			if op+1 == suiteRSSOps {
				rss.take()
			}
		}
		return t
	}

	if !cfg.trace {
		t := loop(time.Duration(cfg.seconds*float64(time.Second)), nil)
		if err := corpusCheck(r); err != nil {
			return nil, err
		}
		r.reportEndToEnd(setup, t, &rss, fmt.Sprintf("%d ops", suiteRSSOps))
		r.note(fmt.Sprintf("sim_cycles: %d per op (every op must simulate %d)", int64(median(cycles)), suiteCycles))
		return r, nil
	}

	td := &traceData{layers: newTracer(), figures: newTracer()}
	bench.ResetHarnessState()
	heapStart := liveHeapBytes()
	gc0 := readGC()
	ut := loop(passDeadline(cfg), nil)
	gc1 := readGC()
	bench.ResetHarnessState()
	td.setUntraced(ut, heapStart, gc0, gc1)
	td.caches = caches
	tt := loop(passDeadline(cfg), td.figures)
	td.traced = tt.fastest()
	td.figures.ops = tt.n
	td.simCycles = median(cycles)

	// One replay of the suite's measurements through the layers.
	bench.ResetHarnessState()
	heap0 := liveHeapBytes()
	if err := replaySuite(td.layers); err != nil {
		return nil, err
	}
	td.layers.ops = 1
	_, progs := source.ParseCacheStats()
	if progs > 0 {
		td.heapKBPerProgram = float64(int64(liveHeapBytes())-int64(heap0)) / 1024 / float64(progs)
	}
	td.report(r)
	if err := writeSpans(cfg, td.figures, "figures"); err != nil {
		return nil, err
	}
	return r, writeSpans(cfg, td.layers, "layers")
}

// suiteConfigs are the (machine, compiler) pairs figures 14-22 measure,
// with the kernel suites each pair covers.
var suiteConfigs = []struct {
	machine *machine.Desc
	cc      pipeline.Compiler
	suites  []string
}{
	{machine.IA64Like(), pipeline.WeakO3, []string{"livermore", "linpack", "stone", "nas"}},
	{machine.IA64Like(), pipeline.WeakNoO3, []string{"livermore", "linpack", "stone", "nas"}},
	{machine.IA64Like(), pipeline.StrongO3, []string{"livermore", "linpack", "stone", "nas"}},
	{machine.IA64Like(), pipeline.StrongNoO3, []string{"livermore", "linpack", "stone", "nas"}},
	{machine.PentiumLike(), pipeline.WeakO3, []string{"livermore", "linpack"}},
	{machine.PentiumLike(), pipeline.WeakNoO3, []string{"livermore", "linpack"}},
	{machine.Power4Like(), pipeline.StrongO3, []string{"livermore", "linpack", "nas"}},
	{machine.Power4Like(), pipeline.StrongNoO3, []string{"livermore", "linpack", "nas"}},
	{machine.ARM7Like(), pipeline.WeakO3, []string{"livermore", "linpack"}},
}

// replaySuite replays every kernel measurement of the figures: a base
// leg, then the MVE and the scalar-expansion SLMS legs, on the kernel's
// seeded inputs.
func replaySuite(tr *tracer) error {
	scalar := core.DefaultOptions()
	scalar.Expansion = core.ExpandScalar
	rp := &replayer{tr: tr}
	for _, c := range suiteConfigs {
		for _, s := range c.suites {
			for _, k := range bench.Suite(s) {
				root := tr.begin("op", 0, -1)
				var prog *source.Program
				var err error
				tr.do("source.parse", 0, root, func(int) { prog, err = source.ParseCached(k.Source) })
				if err != nil {
					return err
				}
				if _, err := rp.compileAndRun(root, prog, c.machine, c.cc, k.Setup); err != nil {
					return fmt.Errorf("%s: %w", k.Name, err)
				}
				for _, opts := range []core.Options{core.DefaultOptions(), scalar} {
					t, err := rp.transform(root, prog, opts)
					if err != nil {
						return fmt.Errorf("%s: %w", k.Name, err)
					}
					if _, err := rp.compileAndRun(root, t, c.machine, c.cc, k.Setup); err != nil {
						return fmt.Errorf("%s: %w", k.Name, err)
					}
				}
				tr.end(root)
			}
		}
	}
	return nil
}

// corpusCheck runs once per paper-suite run: on every machine and every
// compiler, each corpus kernel's simulated output arrays, before and
// after SLMS, must equal what the interpreter computes from the same
// seeded inputs.
func corpusCheck(r *result) error {
	mismatches := 0
	runs := 0
	for _, k := range bench.Kernels() {
		prog, err := source.Parse(k.Source)
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		want := interp.NewEnv()
		k.Setup(want)
		if err := interp.Run(prog, want); err != nil {
			return fmt.Errorf("%s: interpreter: %w", k.Name, err)
		}
		transformed, _, err := core.TransformProgramCached(prog, core.DefaultOptions())
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		for _, mname := range machines {
			d, err := machine.ByName(mname)
			if err != nil {
				return err
			}
			for _, cname := range compilers {
				for _, o0 := range []bool{false, true} {
					cc, err := pipeline.CompilerByName(cname, o0)
					if err != nil {
						return err
					}
					for leg, p := range []*source.Program{prog, transformed} {
						got := interp.NewEnv()
						k.Setup(got)
						runs++
						if _, _, err := pipeline.Run(p, d, cc, got); err != nil {
							mismatches++
							r.note(fmt.Sprintf("corpus check: %s on %s/%s leg %d: %v", k.Name, mname, cc.Name, leg, err))
							continue
						}
						delete(got.Arrays, backend.SpillArray)
						// The SLMS leg may reassociate reductions.
						tol := 0.0
						if leg == 1 {
							tol = 1e-6
						}
						if diffs := interp.Compare(want, got, interp.CompareOpts{FloatTol: tol}); len(diffs) > 0 {
							mismatches++
							r.note(fmt.Sprintf("corpus check: %s on %s/%s leg %d: %v", k.Name, mname, cc.Name, leg, diffs[0]))
						}
					}
				}
			}
		}
	}
	r.note(fmt.Sprintf("corpus check: %d simulated runs compared with the interpreter, %d mismatches", runs, mismatches))
	if mismatches > 0 {
		r.Unexplained += mismatches
	}
	return nil
}

// writeSpans stores a tracer's spans next to the result file.
func writeSpans(cfg runConfig, tr *tracer, kind string) error {
	header := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "spans": kind, "host": hostBlock()}
	return tr.write(filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-%s.spans.jsonl", cfg.workload, cfg.seed, kind)), header)
}
