package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// The traced run records a span around every call the benchmark makes
// into a layer's public functions: name, start, end, parent span and op
// id. Spans stay in memory and are written out when the run ends. A
// layer's self time is its span's duration minus the time its child
// spans cover; its allocations are counted the same way.

type span struct {
	Name     string `json:"name"`
	Op       int    `json:"op"`
	Parent   int    `json:"parent"` // index of the parent span, -1 for a root
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Allocs   uint64 `json:"allocs"` // heap objects allocated while open
	children int64  // nanoseconds covered by child spans
	childAl  uint64 // allocations inside child spans
}

// tracer records spans. It is safe for concurrent use, but allocation
// counts are process-wide, so they are exact only for spans opened from
// a single goroutine.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]float64
	ops    int // ops the traced pass ran
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	al := heapAllocs()
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNs: now, Allocs: al})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	al := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.EndNs = now
	s.Allocs = al - s.Allocs
	if s.Parent >= 0 {
		p := &t.spans[s.Parent]
		p.children += s.EndNs - s.StartNs
		p.childAl += s.Allocs
	}
	return time.Duration(s.EndNs - s.StartNs)
}

// do runs fn inside a span; fn gets the span's id.
func (t *tracer) do(name string, op, parent int, fn func(id int)) {
	id := t.begin(name, op, parent)
	fn(id)
	t.end(id)
}

// count adds v to a named per-layer counter.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// layerStat is the aggregate of every span of one name.
type layerStat struct {
	calls     int
	selfNs    int64
	selfAlloc uint64
}

func (t *tracer) layers() map[string]*layerStat {
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStat{}
			out[s.Name] = ls
		}
		ls.calls++
		ls.selfNs += s.EndNs - s.StartNs - s.children
		ls.selfAlloc += s.Allocs - s.childAl
	}
	return out
}

// selfMSPerOp is a layer's self time per traced op, in milliseconds.
func (t *tracer) selfMSPerOp(name string) float64 {
	ls := t.layers()[name]
	if ls == nil || t.ops == 0 {
		return 0
	}
	return float64(ls.selfNs) / 1e6 / float64(t.ops)
}

// callsPerOp is how often a layer ran per traced op.
func (t *tracer) callsPerOp(name string) float64 {
	ls := t.layers()[name]
	if ls == nil || t.ops == 0 {
		return 0
	}
	return float64(ls.calls) / float64(t.ops)
}

// allocsPerCall is a layer's own heap allocations per call.
func (t *tracer) allocsPerCall(name string) float64 {
	ls := t.layers()[name]
	if ls == nil || ls.calls == 0 {
		return 0
	}
	return float64(ls.selfAlloc) / float64(ls.calls)
}

// perOp is a counter divided by the number of traced ops.
func (t *tracer) perOp(name string) float64 {
	if t.ops == 0 {
		return 0
	}
	return t.counts[name] / float64(t.ops)
}

// ratio divides two counters (0 when the denominator is 0).
func (t *tracer) ratio(num, den string) float64 {
	if t.counts[den] == 0 {
		return 0
	}
	return t.counts[num] / t.counts[den]
}

// selfTable renders every layer's self time, busiest first.
func (t *tracer) selfTable() []string {
	ls := t.layers()
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return ls[names[i]].selfNs > ls[names[j]].selfNs })
	lines := []string{fmt.Sprintf("self time over %d traced ops:", t.ops)}
	for _, n := range names {
		s := ls[n]
		lines = append(lines, fmt.Sprintf("  %-26s calls %8d  self %10.3f ms  (%.4f ms/op)",
			n, s.calls, float64(s.selfNs)/1e6, float64(s.selfNs)/1e6/float64(max(t.ops, 1))))
	}
	return lines
}

// write stores header and then every span as one JSON line each.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
