package sched_test

import (
	"strings"
	"testing"

	"slms/internal/machine"
	"slms/internal/sched"
	"slms/internal/sched/exact"
)

func testMachine(intU, fpU, memU, iw int) *machine.Desc {
	return &machine.Desc{
		Name:       "test",
		IssueWidth: iw,
		Units:      [4]int{intU, fpU, memU, 1},
		Lat:        machine.Lat{IntOp: 1, FloatOp: 1, Load: 1, Store: 1, Branch: 1},
		IntRegs:    64, FPRegs: 64,
	}
}

func TestCheckCatchesViolations(t *testing.T) {
	d := testMachine(1, 1, 1, 1)
	g := &sched.Graph{
		Nodes: []sched.Node{{FU: machine.FUInt, Lat: 2}, {FU: machine.FUInt, Lat: 1}},
		Edges: []sched.Edge{{From: 0, To: 1, Dist: 0, Lat: 2}},
	}
	ok := &sched.Schedule{II: 2, Time: []int{0, 3}} // rows 0 and 1 on the 1-unit machine
	if err := sched.Check(g, d, ok); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	for name, s := range map[string]*sched.Schedule{
		"nil":           nil,
		"bad II":        {II: 0, Time: []int{0, 2}},
		"short":         {II: 2, Time: []int{0}},
		"edge violated": {II: 2, Time: []int{0, 1}},
	} {
		if err := sched.Check(g, d, s); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	// Row overflow: two int ops sharing row 0 of a 1-int-unit machine.
	g2 := &sched.Graph{Nodes: []sched.Node{{FU: machine.FUInt, Lat: 1}, {FU: machine.FUInt, Lat: 1}}}
	if err := sched.Check(g2, d, &sched.Schedule{II: 2, Time: []int{0, 2}}); err == nil {
		t.Fatal("row overflow accepted")
	}
	// Issue-width overflow: different FUs, same row, width 1.
	g3 := &sched.Graph{Nodes: []sched.Node{{FU: machine.FUInt, Lat: 1}, {FU: machine.FUMem, Lat: 1}}}
	if err := sched.Check(g3, d, &sched.Schedule{II: 1, Time: []int{0, 1}}); err == nil {
		t.Fatal("issue-width overflow accepted")
	}
}

func TestResourceMinII(t *testing.T) {
	d := testMachine(2, 1, 1, 2)
	g := &sched.Graph{Nodes: []sched.Node{
		{FU: machine.FUInt}, {FU: machine.FUInt}, {FU: machine.FUInt}, {FU: machine.FUInt},
		{FU: machine.FUMem},
	}}
	// 4 int / 2 units = 2; 5 total / width 2 = 3 (ceil). Bound is 3.
	if got := sched.ResourceMinII(g, d); got != 3 {
		t.Fatalf("ResourceMinII = %d, want 3", got)
	}
}

func TestPriorityOrderMemoized(t *testing.T) {
	g := &sched.Graph{
		Nodes: []sched.Node{{Lat: 1}, {Lat: 1}, {Lat: 1}},
		Edges: []sched.Edge{{From: 0, To: 1, Lat: 3}, {From: 1, To: 2, Lat: 2}},
	}
	before := sched.PriorityComputations()
	o1 := g.PriorityOrder()
	h := g.Heights()
	o2 := g.PriorityOrder()
	if d := sched.PriorityComputations() - before; d != 1 {
		t.Fatalf("priority derived %d times on one graph, want 1", d)
	}
	if &o1[0] != &o2[0] {
		t.Fatal("PriorityOrder not memoized")
	}
	// Chain 0→1→2 with latencies: heights 5, 2, 0 ⇒ order 0,1,2.
	if h[0] != 5 || h[1] != 2 || h[2] != 0 {
		t.Fatalf("heights = %v, want [5 2 0]", h)
	}
	if o1[0] != 0 || o1[1] != 1 || o1[2] != 2 {
		t.Fatalf("order = %v, want [0 1 2]", o1)
	}
}

func TestProveOptimal(t *testing.T) {
	d := testMachine(1, 1, 1, 1)
	g := &sched.Graph{Nodes: []sched.Node{
		{FU: machine.FUInt, Lat: 1}, {FU: machine.FUInt, Lat: 1}, {FU: machine.FUInt, Lat: 1},
	}}
	ex := &exact.Sched{Budget: -1}
	o := sched.Prove(g, d, ex, 3, 10)
	if o.Verdict != sched.VerdictOptimal || o.ExactII != 3 || o.Gap != 0 {
		t.Fatalf("verdict %+v, want proven-optimal at 3", o)
	}
	if o.Cert == "" {
		t.Fatal("optimal verdict above II=1 must carry the II−1 certificate")
	}
}

func TestProveGap(t *testing.T) {
	d := testMachine(2, 2, 2, 4)
	g := &sched.Graph{Nodes: []sched.Node{
		{FU: machine.FUInt, Lat: 1}, {FU: machine.FUInt, Lat: 1},
	}}
	ex := &exact.Sched{Budget: -1}
	// Pretend the heuristic needed II=3; exact schedules at 1.
	o := sched.Prove(g, d, ex, 3, 10)
	if o.Verdict != sched.VerdictGap || o.ExactII != 1 || o.Gap != 2 {
		t.Fatalf("verdict %+v, want gap=2 at exact II=1", o)
	}
}

func TestProveExactOnly(t *testing.T) {
	d := testMachine(1, 1, 1, 2)
	g := &sched.Graph{Nodes: []sched.Node{{FU: machine.FUInt, Lat: 1}}}
	o := sched.Prove(g, d, &exact.Sched{Budget: -1}, 0, 8)
	if o.Verdict != sched.VerdictExactOnly || o.ExactII != 1 {
		t.Fatalf("verdict %+v, want exact-only at 1", o)
	}
}

func TestProveInfeasible(t *testing.T) {
	d := testMachine(2, 2, 2, 4)
	g := &sched.Graph{
		Nodes: []sched.Node{{FU: machine.FUInt, Lat: 1}, {FU: machine.FUInt, Lat: 1}},
		Edges: []sched.Edge{
			{From: 0, To: 1, Dist: 0, Lat: 1},
			{From: 1, To: 0, Dist: 0, Lat: 1},
		},
	}
	o := sched.Prove(g, d, &exact.Sched{Budget: -1}, 0, 6)
	if o.Verdict != sched.VerdictInfeasible {
		t.Fatalf("verdict %+v, want infeasible", o)
	}
	if !strings.Contains(o.Cert, "recurrence") {
		t.Fatalf("infeasible cert should name the cycle, got %q", o.Cert)
	}
}

func TestProveBudget(t *testing.T) {
	d := testMachine(1, 1, 1, 1)
	nodes := make([]sched.Node, 8)
	for i := range nodes {
		nodes[i] = sched.Node{FU: machine.FUInt, Lat: 1}
	}
	g := &sched.Graph{Nodes: nodes}
	o := sched.Prove(g, d, &exact.Sched{Budget: 2}, 9, 20)
	if o.Verdict != sched.VerdictBudget {
		t.Fatalf("verdict %+v, want budget-exhausted", o)
	}
}

// probeLog wraps an exact backend and records every II it is asked to
// probe; above cutAt it answers with a budget cut instead.
type probeLog struct {
	ex     sched.Scheduler
	cutAt  int
	probed []int
}

func (p *probeLog) Schedule(g *sched.Graph, d *machine.Desc, ii int) (*sched.Schedule, error) {
	p.probed = append(p.probed, ii)
	if ii >= p.cutAt {
		return nil, &sched.Budget{II: ii, Visited: 1}
	}
	return p.ex.Schedule(g, d, ii)
}

// TestProveWitnessNeverProbed pins the witness rule: the heuristic's
// II is already proven feasible by its schedule, so Prove refutes only
// the IIs below it and never searches at heurII or above — a search
// there could only be cut by budget and mislabel a proven loop.
func TestProveWitnessNeverProbed(t *testing.T) {
	d := testMachine(1, 1, 1, 1)
	// A 4-cycle recurrence over two nodes: RecMII = 4, ResMII = 2.
	g := &sched.Graph{
		Nodes: []sched.Node{{FU: machine.FUInt, Lat: 2}, {FU: machine.FUInt, Lat: 2}},
		Edges: []sched.Edge{{From: 0, To: 1, Lat: 2}, {From: 1, To: 0, Dist: 1, Lat: 2}},
	}
	for _, heurII := range []int{4, 5, 7} {
		p := &probeLog{ex: &exact.Sched{Budget: -1}, cutAt: heurII}
		o := sched.Prove(g, d, p, heurII, 20)
		for _, ii := range p.probed {
			if ii >= heurII {
				t.Errorf("heurII=%d: probed the witnessed II=%d", heurII, ii)
			}
		}
		switch {
		case heurII == 4:
			if o.Verdict != sched.VerdictOptimal || o.ExactII != 4 || len(p.probed) != 0 {
				t.Errorf("heurII at the lower bound: verdict %+v after probes %v, want proven-optimal with no probe", o, p.probed)
			}
			if !strings.Contains(o.Cert, "recurrence") {
				t.Errorf("optimal at RecMII should carry the cycle certificate, got %q", o.Cert)
			}
		default:
			if o.Verdict != sched.VerdictGap || o.ExactII != 4 || o.Gap != heurII-4 || o.Schedule == nil {
				t.Errorf("heurII=%d: verdict %+v, want gap down to 4 with its schedule", heurII, o)
			} else if err := sched.Check(g, d, o.Schedule); err != nil || o.Schedule.II != 4 {
				t.Errorf("heurII=%d: gap schedule at II=%d fails check: %v", heurII, o.Schedule.II, err)
			}
		}
	}
}
