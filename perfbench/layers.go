package main

import (
	"fmt"
	"strings"
	"time"

	"slms/internal/core"
	"slms/internal/pipeline"
	"slms/internal/server"
	"slms/internal/source"
)

// cacheCounts are the hit/miss counters of the three pipeline caches.
type cacheCounts struct {
	parseHits, parseMisses         int64
	transformHits, transformMisses int64
	compileHits, compileMisses     int64
}

func readCaches() cacheCounts {
	var c cacheCounts
	c.parseHits, c.parseMisses = source.ParseCacheStats()
	c.transformHits, c.transformMisses = core.TransformCacheStats()
	c.compileHits, c.compileMisses = pipeline.CacheStats()
	return c
}

// addDelta adds the growth from before to now into c. Workloads reset
// the caches (which zeroes their counters) between ops, so the totals
// are summed op by op.
func (c *cacheCounts) addDelta(before, now cacheCounts) {
	c.parseHits += now.parseHits - before.parseHits
	c.parseMisses += now.parseMisses - before.parseMisses
	c.transformHits += now.transformHits - before.transformHits
	c.transformMisses += now.transformMisses - before.transformMisses
	c.compileHits += now.compileHits - before.compileHits
	c.compileMisses += now.compileMisses - before.compileMisses
}

func hitRatio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// traceData is everything a traced run measured.
type traceData struct {
	// layers holds the spans around layer calls; its ops count divides
	// the per-op figures.
	layers *tracer
	// figures holds the paper-suite's per-figure spans (nil elsewhere).
	figures *tracer
	// untraced and traced are the kept op latencies of the two passes
	// (see timing.fastest).
	untraced, traced latencies
	caches           cacheCounts
	server           *server.Stats
	gc               gcStats // growth over the untraced pass
	untracedOps      int
	heapKBPerProgram float64
	// retainedKBPerOp is live heap growth over the untraced pass, with
	// the pipeline caches emptied at both ends, per op.
	retainedKBPerOp float64
	// The outputs' own figures: cycles simulated per paper-suite op or
	// serve-cold round, and the optgap census's proven share and II sum.
	simCycles, provenRatio, iiSum float64
}

// setUntraced records the untraced pass t, which began with a live heap
// of heapStart and collector counters gc0 and ended with gc1.
func (td *traceData) setUntraced(t *timing, heapStart uint64, gc0, gc1 gcStats) {
	td.untraced = t.fastest()
	td.untracedOps = t.n
	td.retainedKBPerOp = retainedKB(heapStart, td.untracedOps)
	td.gc = gcStats{gc1.cycles - gc0.cycles, gc1.pauseNs - gc0.pauseNs}
}

// retainedKB is the live heap now minus start, in KiB per op.
func retainedKB(start uint64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(int64(liveHeapBytes())-int64(start)) / 1024 / float64(ops)
}

// figureIDs are the paper figures one paper-suite op regenerates.
var figureIDs = []string{"14", "15", "16", "17", "18", "19", "20", "21", "22", "caseA", "caseB"}

// perLayerNames lists every per-layer metric in report order.
func perLayerNames() []string {
	names := []string{
		"sim_cycles", "proven_ratio", "ii_sum",
		"sim.run.ms", "sim.run.cycles", "sim.run.mcycles_per_s", "sim.predecode.ms",
		"pipeline.compile.ms", "backend.lower.ms", "backend.lower.instrs", "backend.lower.cse_removed",
		"backend.regalloc.ms", "backend.regalloc.spills", "backend.listsched.ms", "backend.listsched.blocks",
		"ims.schedule.ms", "ims.schedule.loops", "ims.schedule.ok_ratio", "ims.schedule.ii_over_mii",
		"source.parse.calls", "source.parse.ms", "source.parse.allocs",
		"core.transform.calls", "core.transform.ms", "core.transform.allocs", "core.transform.applied_ratio",
		"analysis.verify.calls", "analysis.verify.ms", "analysis.verify.proved_ratio",
		"source.cache.hit_ratio", "core.cache.hit_ratio", "pipeline.compile.cache_hit_ratio",
		"sched.prove.ms", "sched.prove.nodes", "sched.prove.probes", "sched.prove.budget_ratio",
		"server.handler.ms", "server.handler.allocs", "server.cache.hit_ratio", "server.cache.entries",
		"runtime.gc.cycles", "runtime.gc.pause_ms", "runtime.heap_kb_per_program", "runtime.retained_kb_per_op",
		"trace.untraced_p50_ms", "trace.traced_p50_ms", "trace.overhead_ms",
	}
	for _, id := range figureIDs {
		names = append(names, "bench.figure."+id+".ms")
	}
	return names
}

// perLayerUnit is the unit of a per-layer metric, from its name.
func perLayerUnit(name string) string {
	switch {
	case name == "sim_cycles", name == "ii_sum":
		return "cycles"
	case strings.HasSuffix(name, ".ms"), strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "ii_over_mii"):
		return "ratio"
	case strings.HasSuffix(name, "mcycles_per_s"):
		return "Mcycles/s"
	case strings.HasSuffix(name, "_kb_per_program"), strings.HasSuffix(name, "_kb_per_op"):
		return "KiB"
	}
	return "count"
}

// report fills r with every per-layer metric. Layers a workload never
// reaches read 0.
func (td *traceData) report(r *result) {
	lt := td.layers
	simMS := lt.selfMSPerOp("sim.run")
	v := map[string]float64{
		"sim.run.ms":                       simMS,
		"sim.run.cycles":                   lt.perOp("sim.run.cycles"),
		"sim.predecode.ms":                 lt.selfMSPerOp("sim.predecode"),
		"pipeline.compile.ms":              lt.selfMSPerOp("pipeline.compile"),
		"backend.lower.ms":                 lt.selfMSPerOp("backend.lower"),
		"backend.lower.instrs":             lt.perOp("backend.lower.instrs"),
		"backend.lower.cse_removed":        lt.perOp("backend.lower.cse_removed"),
		"backend.regalloc.ms":              lt.selfMSPerOp("backend.regalloc"),
		"backend.regalloc.spills":          lt.perOp("backend.regalloc.spills"),
		"backend.listsched.ms":             lt.selfMSPerOp("backend.listsched"),
		"backend.listsched.blocks":         lt.perOp("backend.listsched.blocks"),
		"ims.schedule.ms":                  lt.selfMSPerOp("ims.schedule"),
		"ims.schedule.loops":               lt.perOp("ims.schedule.loops"),
		"ims.schedule.ok_ratio":            lt.ratio("ims.schedule.ok", "ims.schedule.loops"),
		"ims.schedule.ii_over_mii":         lt.ratio("ims.schedule.ii_over_mii", "ims.schedule.ok"),
		"source.parse.calls":               lt.callsPerOp("source.parse"),
		"source.parse.ms":                  lt.selfMSPerOp("source.parse"),
		"source.parse.allocs":              lt.allocsPerCall("source.parse"),
		"core.transform.calls":             lt.callsPerOp("core.transform"),
		"core.transform.ms":                lt.selfMSPerOp("core.transform"),
		"core.transform.allocs":            lt.allocsPerCall("core.transform"),
		"core.transform.applied_ratio":     lt.ratio("core.transform.applied", "core.transform.loops"),
		"analysis.verify.calls":            lt.callsPerOp("analysis.verify"),
		"analysis.verify.ms":               lt.selfMSPerOp("analysis.verify"),
		"analysis.verify.proved_ratio":     lt.ratio("analysis.verify.proved", "analysis.verify.applied"),
		"source.cache.hit_ratio":           hitRatio(td.caches.parseHits, td.caches.parseMisses),
		"core.cache.hit_ratio":             hitRatio(td.caches.transformHits, td.caches.transformMisses),
		"pipeline.compile.cache_hit_ratio": hitRatio(td.caches.compileHits, td.caches.compileMisses),
		"sched.prove.ms":                   lt.selfMSPerOp("sched.prove"),
		"sched.prove.nodes":                lt.perOp("sched.prove.nodes"),
		"sched.prove.probes":               lt.perOp("sched.prove.probes"),
		"sched.prove.budget_ratio":         lt.ratio("sched.prove.budget", "sched.prove.loops"),
		"server.handler.ms":                lt.selfMSPerOp("server.handler"),
		"server.handler.allocs":            lt.allocsPerCall("server.handler"),
		"runtime.heap_kb_per_program":      td.heapKBPerProgram,
		"runtime.retained_kb_per_op":       td.retainedKBPerOp,
		"sim_cycles":                       td.simCycles,
		"proven_ratio":                     td.provenRatio,
		"ii_sum":                           td.iiSum,
	}
	if simMS > 0 {
		v["sim.run.mcycles_per_s"] = lt.perOp("sim.run.cycles") / simMS / 1e3
	}
	if s := td.server; s != nil {
		v["server.cache.hit_ratio"] = hitRatio(s.CacheHits, s.CacheMisses)
		v["server.cache.entries"] = float64(s.CacheEntries)
	}
	if td.untracedOps > 0 {
		v["runtime.gc.cycles"] = float64(td.gc.cycles) / float64(td.untracedOps)
		v["runtime.gc.pause_ms"] = float64(td.gc.pauseNs) / 1e6 / float64(td.untracedOps)
	}
	u, t := td.untraced.quantile(0.5), td.traced.quantile(0.5)
	v["trace.untraced_p50_ms"], v["trace.traced_p50_ms"], v["trace.overhead_ms"] = u, t, t-u
	if ft := td.figures; ft != nil {
		for _, id := range figureIDs {
			v["bench.figure."+id+".ms"] = ft.selfMSPerOp("bench.figure." + id)
		}
	}
	for _, n := range perLayerNames() {
		r.add(n, perLayerUnit(n), v[n])
	}
	if u > 0 {
		r.note(fmt.Sprintf("tracing overhead: traced p50 %.4f ms - untraced p50 %.4f ms = %+.4f ms (%+.1f%%)",
			t, u, t-u, 100*(t-u)/u))
	}
	r.Notes = append(r.Notes, lt.selfTable()...)
	if td.figures != nil {
		r.Notes = append(r.Notes, td.figures.selfTable()...)
	}
}

// passDeadline splits a traced run's time between its two passes.
func passDeadline(cfg runConfig) time.Duration {
	return time.Duration(cfg.seconds / 2 * float64(time.Second))
}
