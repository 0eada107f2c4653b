package main

import (
	"fmt"
	"regexp"
	"strconv"

	"slms/internal/analysis"
	"slms/internal/core"
	"slms/internal/ddg"
	"slms/internal/source"
)

// For some loops the recurrence that a /v1/explain diagnostic names
// ("pipelined at II=n; recurrence C forbids II=n-1", "no valid II:
// recurrence C requires II ≥ m, ...") changes from one cold request to
// the next, even for the same program: the order of the dependence
// graph's edges is not stable, and mii.BindingCycle returns the first
// positive cycle it reaches. Any recurrence with the stated property is
// a correct witness, so a reply that differs from its reference only
// there is checked by proving its witnesses against the loop's
// dependence graph instead of by comparing bytes.

const cycleRe = `(MI\d+(?: →\[[^\]]*\] MI\d+)+)`

var (
	appliedRe = regexp.MustCompile(`^pipelined at II=(\d+); recurrence ` + cycleRe + ` forbids II=(\d+)$`)
	noIIRe    = regexp.MustCompile(`^no valid II: recurrence ` + cycleRe + ` requires II ≥ (\d+), but only II < (\d+) \(the MI count\) beats the sequential schedule; `)
	noDistRe  = regexp.MustCompile(`^no valid II: recurrence ` + cycleRe + ` carries no iteration distance, so no initiation interval can satisfy it$`)
	headRe    = regexp.MustCompile(`^MI(\d+)`)
	stepRe    = regexp.MustCompile(` →\[([^\]]*)\] MI(\d+)`)
)

// loopGraph is the dependence graph the explain handler reasons over
// for one loop: all of it, and without the unknown-distance edges that
// it leaves out of the witness search of a pipelined loop.
type loopGraph struct{ all, known *ddg.Graph }

// loopGraphs are a program's loop graphs, keyed by line and column.
type loopGraphs map[[2]int]loopGraph

// explainGraphs analyses src as /v1/explain does (default options).
func explainGraphs(src string) (loopGraphs, error) {
	prog, err := source.Parse(src)
	if err != nil {
		return nil, err
	}
	_, results, err := core.TransformProgram(prog, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	gs := loopGraphs{}
	for _, res := range results {
		if res.Dep == nil {
			continue
		}
		g := ddg.Build(res.Dep, true)
		known := &ddg.Graph{N: g.N}
		for _, e := range g.Edges {
			if !e.Unknown {
				known.Edges = append(known.Edges, e)
			}
		}
		gs[[2]int{res.Pos.Line, res.Pos.Col}] = loopGraph{g, known}
	}
	return gs, nil
}

// isWitness reports whether d names a recurrence.
func isWitness(d analysis.Diag) bool {
	return appliedRe.MatchString(d.Message) || noIIRe.MatchString(d.Message) || noDistRe.MatchString(d.Message)
}

// validWitness reports whether d names a recurrence of its loop's graph
// that has the property d states: it forbids the II below the achieved
// one, or it needs the stated II, at least the MI count, or it is
// positive with no iteration distance.
func (gs loopGraphs) validWitness(d analysis.Diag) bool {
	lg, ok := gs[[2]int{d.Line, d.Col}]
	if !ok {
		return false
	}
	num := func(s string) int64 { n, _ := strconv.ParseInt(s, 10, 64); return n }
	if m := appliedRe.FindStringSubmatch(d.Message); m != nil {
		ii, forbidden := num(m[1]), num(m[3])
		delay, dist, ok := walkCycle(lg.known, m[2], forbidden)
		return ok && forbidden == ii-1 && delay-forbidden*dist > 0
	}
	maxII := int64(lg.all.N) - 1
	if m := noIIRe.FindStringSubmatch(d.Message); m != nil {
		need, n := num(m[2]), num(m[3])
		delay, dist, ok := walkCycle(lg.all, m[1], maxII)
		return ok && n == int64(lg.all.N) && dist > 0 && delay-maxII*dist > 0 && (delay+dist-1)/dist == need
	}
	if m := noDistRe.FindStringSubmatch(d.Message); m != nil {
		delay, dist, ok := walkCycle(lg.all, m[1], maxII)
		return ok && dist == 0 && delay > 0
	}
	return false
}

// walkCycle follows a cycle rendered by mii.CycleString through g and
// returns its total delay and iteration distance, taking at each step
// the edge of heaviest weight delay − ii·dist among those the step's
// label names. ok is false unless every step names an edge of g and the
// walk ends where it began.
func walkCycle(g *ddg.Graph, cyc string, ii int64) (delay, dist int64, ok bool) {
	first, _ := strconv.Atoi(headRe.FindStringSubmatch(cyc)[1])
	from := first
	for _, step := range stepRe.FindAllStringSubmatch(cyc, -1) {
		to, _ := strconv.Atoi(step[2])
		var best *ddg.Edge
		for i, e := range g.Edges {
			if e.From == from && e.To == to && edgeLabel(e) == step[1] &&
				(best == nil || e.Delay-ii*e.Dist > best.Delay-ii*best.Dist) {
				best = &g.Edges[i]
			}
		}
		if best == nil {
			return 0, 0, false
		}
		delay += best.Delay
		dist += best.Dist
		from = to
	}
	return delay, dist, from == first
}

// edgeLabel is how mii.CycleString labels an edge.
func edgeLabel(e ddg.Edge) string {
	if e.Chain {
		return "chain"
	}
	return fmt.Sprintf("%s %s dist=%d", e.Kind, e.Var, e.Dist)
}

// witnessGraphs caches each kernel's explain graphs, computed the first
// time one of its replies needs its witness proved.
type witnessGraphs struct {
	by map[int]loopGraphs
}

func (w *witnessGraphs) of(kernel int, src string) loopGraphs {
	if gs, ok := w.by[kernel]; ok {
		return gs
	}
	if w.by == nil {
		w.by = map[int]loopGraphs{}
	}
	gs, err := explainGraphs(src)
	if err != nil {
		gs = nil // every witness of the kernel then fails its proof
	}
	w.by[kernel] = gs
	return gs
}
