package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"slms/internal/analysis"
	"slms/internal/bench"
	"slms/internal/server"
)

// reply is a recorded response.
type reply struct {
	status int
	body   []byte
}

// outcome classifies one checked reply.
type outcome int

const (
	okReply outcome = iota
	// witnessVariant is a correct /v1/explain reply that names another
	// recurrence than its reference does, each proven (see witness.go).
	witnessVariant
	// knownRejection is the SLMS422 "array has dimension 0" defect on
	// kernel24/idamax/idamax2 (see knownFailing).
	knownRejection
	unexplained
)

// serveState is one serve workload's program set and references.
type serveState struct {
	ks   []bench.Kernel
	set  []request
	refs []reply
	srv  *server.Server
	// graphs proves the witnesses of explain replies that differ from
	// their reference.
	graphs witnessGraphs
	// rss is taken after the first serve-cold round, or once the
	// serve-cached client has sent the working set cachedRSSPasses times.
	rss rssMark
}

const cachedRSSPasses = 10

// newServer builds the in-process server under test. QueueDepth covers
// every client, so no request is refused for capacity.
func newServer() *server.Server {
	return server.New(server.Config{QueueDepth: 4 * runtime.NumCPU()})
}

// renderSet renders every request of the set with one prefix per
// request, numbered from first.
func (st *serveState) renderSet(seed int64, first int) ([][]byte, []string) {
	bodies := make([][]byte, len(st.set))
	prefixes := make([]string, len(st.set))
	for i, r := range st.set {
		p := programPrefix(seed, first+i)
		src, err := renameIdents(st.ks[r.kernel].Source, p)
		if err != nil {
			panic(fmt.Sprintf("perfbench: kernel %s does not tokenize: %v", st.ks[r.kernel].Name, err))
		}
		bodies[i] = requestBody(src, r.target)
		prefixes[i] = p
	}
	return bodies, prefixes
}

// setupServe builds the program set and renders the reference replies
// on a new server. For serve-cold the references are rendered once per
// distinct request with refPrefix; for serve-cached they are the replies
// to the run's own programs, which also primes the cache.
func setupServe(seed int64, cached bool) *serveState {
	bench.ResetHarnessState()
	st := &serveState{ks: bench.KernelsExtended(), srv: newServer()}
	c := newClient(st.srv.Handler())
	if cached {
		st.set = cachedSet(rand.New(rand.NewSource(seed)), len(st.ks))
		bodies, _ := st.renderSet(seed, 0)
		st.refs = make([]reply, len(st.set))
		for i, r := range st.set {
			status, body := c.do(r.endpoint, bodies[i])
			st.refs[i] = reply{status, append([]byte(nil), body...)}
		}
		// A second pass registers every request with the fast path.
		for i, r := range st.set {
			c.do(r.endpoint, bodies[i])
		}
		return st
	}
	st.set = coldSet(len(st.ks))
	st.refs = make([]reply, len(st.set))
	byKey := map[string]reply{}
	for i, r := range st.set {
		key := r.key(st.ks)
		ref, ok := byKey[key]
		if !ok {
			src, err := renameIdents(st.ks[r.kernel].Source, refPrefix)
			if err != nil {
				panic(err)
			}
			status, body := c.do(r.endpoint, requestBody(src, r.target))
			ref = reply{status, append([]byte(nil), body...)}
			byKey[key] = ref
		}
		st.refs[i] = ref
	}
	return st
}

// classify checks one reply against the reference of set entry i. A
// serve-cold reply is first mapped back to the reference prefix.
func (st *serveState) classify(i int, got reply, prefix string) outcome {
	r := st.set[i]
	ref := st.refs[i]
	if expectFailure(st.ks[r.kernel].Name, r.endpoint) && got.status == 422 &&
		bytes.Contains(got.body, []byte(`"SLMS422"`)) {
		return knownRejection
	}
	body := got.body
	if prefix != "" {
		body = []byte(strings.ReplaceAll(string(body), prefix, refPrefix))
	}
	if got.status == ref.status && got.status == 200 && bytes.Equal(body, ref.body) {
		return okReply
	}
	if r.endpoint == "explain" && got.status == 200 && ref.status == 200 &&
		st.provenWitnesses(r.kernel, body, ref.body) {
		return witnessVariant
	}
	return unexplained
}

// provenWitnesses reports whether two /v1/explain replies differ only
// in the recurrences their diagnostics name, and every recurrence that
// a differs in is proven to forbid the II its diagnostic says it does.
func (st *serveState) provenWitnesses(kernel int, a, b []byte) bool {
	type explain struct {
		Diagnostics []analysis.Diag  `json:"diagnostics"`
		Summary     analysis.Summary `json:"summary"`
		Loops       json.RawMessage  `json:"loops"`
	}
	var x, y explain
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return false
	}
	if x.Summary != y.Summary || !bytes.Equal(x.Loops, y.Loops) || len(x.Diagnostics) != len(y.Diagnostics) {
		return false
	}
	for i, d := range x.Diagnostics {
		e := y.Diagnostics[i]
		if d.Message != e.Message {
			src, err := renameIdents(st.ks[kernel].Source, refPrefix)
			if err != nil || !st.graphs.of(kernel, src).validWitness(d) {
				return false
			}
			d.Message, e.Message = "", ""
		}
		if d != e {
			return false
		}
	}
	return true
}

// scheduleCycles returns base + SLMS cycles of a /v1/schedule reply.
func scheduleCycles(body []byte) int64 {
	var s struct {
		Base, SLMS *struct {
			Cycles int64 `json:"cycles"`
		}
	}
	if json.Unmarshal(body, &s) != nil || s.Base == nil || s.SLMS == nil {
		return 0
	}
	return s.Base.Cycles + s.SLMS.Cycles
}

// tally accumulates the outcomes of a run.
type tally struct {
	attempted int
	byOutcome [4]int
	failedBy  map[string]int // "kernel endpoint" -> failures
}

func (t *tally) add(key string, o outcome) {
	t.attempted++
	t.byOutcome[o]++
	if o == knownRejection || o == unexplained {
		if t.failedBy == nil {
			t.failedBy = map[string]int{}
		}
		t.failedBy[key]++
	}
}

func (t *tally) failed() int { return t.byOutcome[knownRejection] + t.byOutcome[unexplained] }

func (t *tally) report(r *result) {
	r.Attempted, r.Failed, r.Unexplained = t.attempted, t.failed(), t.byOutcome[unexplained]
	r.note(fmt.Sprintf("failures: %d of %d ops: %d known SLMS422 rejections, %d unexplained",
		t.failed(), t.attempted, t.byOutcome[knownRejection], t.byOutcome[unexplained]))
	r.note(fmt.Sprintf("explain replies naming another recurrence than their reference, each proven: %d",
		t.byOutcome[witnessVariant]))
	keys := make([]string, 0, len(t.failedBy))
	for k := range t.failedBy {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.note(fmt.Sprintf("  failed %-24s x%d", k, t.failedBy[k]))
	}
}

// coldRecord is one serve-cold reply, kept for checking after its round.
type coldRecord struct {
	idx int
	rep reply
}

// coldPass runs whole serve-cold rounds on one client until d has passed
// (at least one round). Every round sends the whole program set in a
// seeded order, each request with a prefix no earlier request used,
// after the caches were emptied, so they hold at most one round's
// programs however fast the server is; and every run sends the same
// share of each request kind. With a tracer each request runs inside a
// server.handler span and is followed by a traced replay of the same
// request under yet another prefix.
func (st *serveState) coldPass(cfg runConfig, d time.Duration, first *int, tr *tracer, td *traceData,
	tl *tally, roundCycles *[]float64) *timing {
	rng := rand.New(rand.NewSource(cfg.seed ^ int64(*first+1)))
	c := newClient(st.srv.Handler())
	var heapPerProg []float64
	t := startTiming(len(st.set))
	deadline := t.start.Add(d)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		bodies, prefixes := st.renderSet(cfg.seed, *first)
		*first += len(st.set)
		order := rng.Perm(len(st.set))
		bench.ResetHarnessState()
		heap0 := liveHeapBytes()
		before := readCaches()

		recs := make([]coldRecord, len(order))
		for k, i := range order {
			r := st.set[i]
			if tr == nil {
				s := time.Now()
				status, body := c.do(r.endpoint, bodies[i])
				t.add(i, time.Since(s))
				recs[k] = coldRecord{i, reply{status, append([]byte(nil), body...)}}
				continue
			}
			op := tr.ops
			tr.ops++
			sp := tr.begin("server.handler", op, -1)
			status, body := c.do(r.endpoint, bodies[i])
			t.add(i, tr.end(sp))
			recs[k] = coldRecord{i, reply{status, append([]byte(nil), body...)}}
			src, err := renameIdents(st.ks[r.kernel].Source, programPrefix(cfg.seed, *first+k))
			if err != nil {
				panic(err)
			}
			rp := &replayer{tr: tr, op: op}
			root := tr.begin("replay", op, -1)
			cyc, rerr := rp.replayRequest(root, r.endpoint, src, r.target)
			tr.end(root)
			if status == 200 && r.endpoint == "schedule" && (rerr != nil || cyc != scheduleCycles(body)) {
				tr.count("replay.mismatch", 1)
			}
		}
		if tr != nil {
			*first += len(st.set) // the replays' prefixes
		}
		if td != nil {
			td.caches.addDelta(before, readCaches())
			if n := len(st.set); n > 0 {
				heapPerProg = append(heapPerProg, float64(int64(liveHeapBytes())-int64(heap0))/1024/float64(n))
			}
		}

		var cyc int64
		for _, rec := range recs {
			o := st.classify(rec.idx, rec.rep, prefixes[rec.idx])
			tl.add(st.ks[st.set[rec.idx].kernel].Name+" "+st.set[rec.idx].endpoint, o)
			if o == okReply && st.set[rec.idx].endpoint == "schedule" {
				cyc += scheduleCycles(rec.rep.body)
			}
		}
		if roundCycles != nil {
			*roundCycles = append(*roundCycles, float64(cyc))
		}
		st.rss.take()
	}
	if td != nil && len(heapPerProg) > 0 {
		td.heapKBPerProgram = median(heapPerProg)
	}
	return t
}

func runServeCold(cfg runConfig) (*result, error) {
	var st *serveState
	setup := timeSetups(func() { st = setupServe(cfg.seed, false) })
	r := &result{}
	var tl tally
	first := 0
	if !cfg.trace {
		var cycles []float64
		t := st.coldPass(cfg, time.Duration(cfg.seconds*float64(time.Second)), &first, nil, nil, &tl, &cycles)
		tl.report(r)
		r.reportEndToEnd(setup, t, &st.rss, "1 round")
		r.note(fmt.Sprintf("%d requests per round, %d rounds, %d programs served", len(st.set), len(cycles), first))
		r.note(fmt.Sprintf("sim_cycles: %d per round (base + SLMS cycles of the schedule replies that passed)", int64(median(cycles))))
		return r, nil
	}

	td := &traceData{layers: newTracer()}
	bench.ResetHarnessState()
	heapStart := liveHeapBytes()
	gc0 := readGC()
	var cycles []float64
	ut := st.coldPass(cfg, passDeadline(cfg), &first, nil, td, &tl, &cycles)
	td.simCycles = median(cycles)
	gc1 := readGC()
	bench.ResetHarnessState()
	td.setUntraced(ut, heapStart, gc0, gc1)
	td.traced = st.coldPass(cfg, passDeadline(cfg), &first, td.layers, nil, &tl, nil).fastest()
	stats := st.srv.Stats()
	td.server = &stats
	tl.report(r)
	if n := td.layers.counts["replay.mismatch"]; n > 0 {
		r.Unexplained += int(n)
		r.note(fmt.Sprintf("%d replayed schedule requests disagree with the handler's cycles", int(n)))
	}
	td.report(r)
	return r, writeSpans(cfg, td.layers, "layers")
}

// cachedPass replays the primed program set on one client in a seeded
// order, in whole passes, until d has passed (at least one pass). With a
// tracer every request runs inside a server.handler span.
func (st *serveState) cachedPass(cfg runConfig, d time.Duration, bodies [][]byte, tr *tracer, tl *tally) *timing {
	c := newClient(st.srv.Handler())
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(st.set))
	t := startTiming(len(st.set))
	deadline := t.start.Add(d)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, i := range order {
			r := st.set[i]
			var status int
			var body []byte
			if tr != nil {
				sp := tr.begin("server.handler", tr.ops, -1)
				status, body = c.do(r.endpoint, bodies[i])
				t.add(i, tr.end(sp))
				tr.ops++
			} else {
				s := time.Now()
				status, body = c.do(r.endpoint, bodies[i])
				t.add(i, time.Since(s))
			}
			ref := st.refs[i]
			o := okReply
			if status != 200 || ref.status != 200 || !bytes.Equal(body, ref.body) {
				o = st.classify(i, reply{status, body}, "")
			}
			tl.add(st.ks[r.kernel].Name+" "+r.endpoint, o)
		}
		if pass+1 == cachedRSSPasses {
			st.rss.take()
		}
	}
	return t
}

func runServeCached(cfg runConfig) (*result, error) {
	var st *serveState
	setup := timeSetups(func() { st = setupServe(cfg.seed, true) })
	bodies, _ := st.renderSet(cfg.seed, 0)
	r := &result{}
	var tl tally
	if !cfg.trace {
		t := st.cachedPass(cfg, time.Duration(cfg.seconds*float64(time.Second)), bodies, nil, &tl)
		tl.report(r)
		r.reportEndToEnd(setup, t, &st.rss, fmt.Sprintf("%d passes over the working set", cachedRSSPasses))
		return r, nil
	}
	// One more, untimed, set-up measures the heap the primed set holds.
	bench.ResetHarnessState()
	heap0 := liveHeapBytes()
	st = setupServe(cfg.seed, true)
	bodies, _ = st.renderSet(cfg.seed, 0)
	heapKB := float64(int64(liveHeapBytes())-int64(heap0)) / 1024 / float64(len(st.set))
	td := &traceData{layers: newTracer(), heapKBPerProgram: heapKB}
	heapStart := liveHeapBytes()
	gc0 := readGC()
	before := readCaches()
	ut := st.cachedPass(cfg, passDeadline(cfg), bodies, nil, &tl)
	td.caches.addDelta(before, readCaches())
	gc1 := readGC()
	td.setUntraced(ut, heapStart, gc0, gc1)
	td.traced = st.cachedPass(cfg, passDeadline(cfg), bodies, td.layers, &tl).fastest()
	stats := st.srv.Stats()
	td.server = &stats
	tl.report(r)
	td.report(r)
	return r, writeSpans(cfg, td.layers, "layers")
}
