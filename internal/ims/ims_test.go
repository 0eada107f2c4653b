package ims

import (
	"strings"
	"testing"

	"slms/internal/backend"
	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/sched"
	"slms/internal/sched/exact"
	"slms/internal/source"
)

// loopBody compiles src and returns its innermost loop body block.
func loopBody(t testing.TB, src string) *ir.Block {
	t.Helper()
	f, err := backend.Compile(source.MustParse(src))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	backend.LocalCSE(f)
	for _, b := range f.Blocks {
		if b.IsLoopBody {
			return b
		}
	}
	t.Fatal("no loop body block")
	return nil
}

func TestParallelLoopHitsResMII(t *testing.T) {
	d := machine.IA64Like()
	b := loopBody(t, `
		float A[128]; float B[128]; float C[128];
		for (i = 0; i < 120; i++) {
			C[i] = A[i] * B[i] + 2.0;
		}
	`)
	r := Schedule(b, d, true)
	if !r.OK {
		t.Fatalf("IMS rejected a parallel loop: %s", r.Reason)
	}
	// 2 loads + 1 store on 2 memory ports: ResMII ≥ 2; a fully parallel
	// loop must reach it (or very close).
	if r.ResMII < 2 {
		t.Errorf("ResMII = %d, want >= 2", r.ResMII)
	}
	if r.II > r.ResMII+1 {
		t.Errorf("II = %d far above ResMII %d", r.II, r.ResMII)
	}
	if r.SL < r.II {
		t.Errorf("SL %d < II %d", r.SL, r.II)
	}
}

func TestRecurrenceBoundsRecMII(t *testing.T) {
	d := machine.IA64Like()
	// x[i] = x[i-1]*z[i]: carried chain through an fmul (latency 4):
	// RecMII >= 4.
	b := loopBody(t, `
		float x[128]; float z[128];
		for (i = 1; i < 120; i++) {
			x[i] = x[i-1] * z[i];
		}
	`)
	r := Schedule(b, d, true)
	if !r.OK {
		t.Fatalf("IMS rejected: %s", r.Reason)
	}
	if r.RecMII < d.Lat.FloatMul {
		t.Errorf("RecMII = %d, want >= %d (carried fmul chain)", r.RecMII, d.Lat.FloatMul)
	}
	if r.II < r.RecMII {
		t.Errorf("II %d below RecMII %d", r.II, r.RecMII)
	}
}

func TestWeakDisambiguationInflatesII(t *testing.T) {
	d := machine.IA64Like()
	src := `
		float A[128];
		for (i = 0; i < 120; i++) {
			A[i] = A[i] * 2.0 + 1.0;
		}
	`
	b := loopBody(t, src)
	strong := Schedule(b, d, true)
	weak := Schedule(b, d, false)
	if !strong.OK {
		t.Fatalf("strong rejected: %s", strong.Reason)
	}
	if weak.OK && weak.II < strong.II {
		t.Errorf("weak disambiguation should never give a smaller II: %d < %d", weak.II, strong.II)
	}
}

func TestAccumulatorII(t *testing.T) {
	d := machine.IA64Like()
	b := loopBody(t, `
		float A[128]; float B[128];
		float s = 0.0;
		for (i = 0; i < 120; i++) {
			s += A[i] * B[i];
		}
	`)
	r := Schedule(b, d, true)
	if !r.OK {
		t.Fatalf("rejected: %s", r.Reason)
	}
	// The s chain is one fadd per iteration: RecMII = fadd latency.
	if r.II < d.Lat.FloatOp {
		t.Errorf("II = %d cannot beat the carried fadd latency %d", r.II, d.Lat.FloatOp)
	}
}

func TestRegisterPressureRejection(t *testing.T) {
	// A loop with long fp latencies and many live values: on a machine
	// with a tiny register file the pipelined schedule must be rejected
	// (the paper's Figure 11 failure mode).
	tiny := machine.IA64Like()
	tiny.IntRegs = 6
	tiny.FPRegs = 4
	b := loopBody(t, `
		float A[256]; float B[256]; float C[256]; float D[256];
		for (i = 0; i < 250; i++) {
			D[i] = A[i]*B[i] + B[i]*C[i] + A[i]*C[i] + A[i+1]*B[i+1] + 0.5;
		}
	`)
	r := Schedule(b, tiny, true)
	if r.OK {
		t.Fatalf("expected register-pressure rejection, got II=%d press=(%d,%d)",
			r.II, r.PressInt, r.PressFloat)
	}
	if !strings.Contains(r.Reason, "register pressure") {
		t.Errorf("reason = %q, want register pressure", r.Reason)
	}
	// The same loop fits the real machine.
	if r2 := Schedule(b, machine.IA64Like(), true); !r2.OK {
		t.Errorf("full-size file should accept: %s", r2.Reason)
	}
}

func TestStagesConsistent(t *testing.T) {
	d := machine.Power4Like()
	b := loopBody(t, `
		float A[128]; float B[128];
		for (i = 0; i < 120; i++) {
			B[i] = A[i] * 1.5 + A[i+1] * 2.5;
		}
	`)
	r := Schedule(b, d, true)
	if !r.OK {
		t.Fatalf("rejected: %s", r.Reason)
	}
	if r.Stages != (r.SL+r.II-1)/r.II {
		t.Errorf("stages %d inconsistent with SL %d / II %d", r.Stages, r.SL, r.II)
	}
}

func TestEmptyBody(t *testing.T) {
	b := &ir.Block{}
	if r := Schedule(b, machine.IA64Like(), true); r.OK {
		t.Error("empty body must not schedule")
	}
}

// heurMissSrc is a loop where the height-priority heuristic lands at
// II=6 but II=5 is feasible on the ia64-like machine.
const heurMissSrc = `float A[300]; float B[300]; float D[300]; float E[300]; float F[300];
for (i = 3; i < 200; i++) {
  F[i] = (E[i-3] + B[i-1]) * 0.25 + F[i-2];
  D[i] = D[i] + E[i-3] * 0.5;
  A[i] = D[i-2] + E[i-3] * 0.5;
}
`

// TestExactRefutationImprovesIncumbent pins the driver's contract with
// an effort set: the heuristic's II is the incumbent, and the exact
// search's better schedule below it replaces it, with the gap verdict.
func TestExactRefutationImprovesIncumbent(t *testing.T) {
	d := machine.IA64Like()
	b := loopBody(t, heurMissSrc)
	heur := Schedule(b, d, true)
	cfg, err := EffortConfig("", "standard")
	if err != nil {
		t.Fatal(err)
	}
	r := ScheduleWith(b, d, true, cfg)
	if !heur.OK || !r.OK {
		t.Fatalf("rejected: heuristic %q, with refutation %q", heur.Reason, r.Reason)
	}
	if heur.II != 6 || r.II != 5 {
		t.Fatalf("II heuristic %d, with refutation %d; want 6 and 5", heur.II, r.II)
	}
	if o := r.Opt; o == nil || o.Verdict != sched.VerdictGap || o.HeurII != 6 || o.ExactII != 5 {
		t.Fatalf("verdict %+v, want gap 6->5", r.Opt)
	}
}

// TestInvalidIncumbentIsNotAWitness feeds the driver a placement that
// returns a schedule violating its dependences: sched.Check must reject
// it, so the exact search runs without a witness and its schedule wins.
func TestInvalidIncumbentIsNotAWitness(t *testing.T) {
	d := machine.IA64Like()
	b := loopBody(t, `
		float x[128]; float z[128];
		for (i = 1; i < 120; i++) {
			x[i] = x[i-1] * z[i];
		}
	`)
	allZero := func(g *sched.Graph, _ *machine.Desc, ii int) *sched.Schedule {
		return &sched.Schedule{II: ii, Time: make([]int, g.N())}
	}
	cfg, err := EffortConfig("exact", "")
	if err != nil {
		t.Fatal(err)
	}
	r := scheduleWith(b, d, true, cfg, allZero)
	if !r.OK || r.Opt == nil || r.Opt.Verdict != sched.VerdictExactOnly {
		t.Fatalf("result %+v, want the exact schedule with an exact-only verdict", r)
	}
	if want := Schedule(b, d, true); r.II != want.II {
		t.Errorf("II %d, want the minimal II %d", r.II, want.II)
	}
}

// TestEffortConfig pins the one validation point the pipeline, the
// CLIs and slmsd share: effort alone selects the refutation budget,
// and scheduler "exact" is only shorthand for effort "standard".
func TestEffortConfig(t *testing.T) {
	for _, c := range []struct {
		scheduler, effort string
		budget            int // exact budget; -2 = heuristic only
	}{
		{"", "", -2}, {"ims", "", -2}, {"exact", "", 0}, {"ims", "standard", 0},
		{"exact", "quick", 20_000}, {"", "max", -1},
	} {
		cfg, err := EffortConfig(c.scheduler, c.effort)
		if err != nil {
			t.Fatalf("%q/%q: %v", c.scheduler, c.effort, err)
		}
		ex, _ := cfg.Prove.(*exact.Sched)
		switch {
		case c.budget == -2 && cfg.Prove != nil:
			t.Errorf("%q/%q: configured a refutation, want the heuristic alone", c.scheduler, c.effort)
		case c.budget != -2 && (ex == nil || ex.Budget != c.budget):
			t.Errorf("%q/%q: got %+v, want an exact budget of %d", c.scheduler, c.effort, cfg.Prove, c.budget)
		}
	}
	if _, err := EffortConfig("sdc", ""); err == nil || err.Error() != `unknown scheduler "sdc" (want one of [exact ims])` {
		t.Errorf("unknown scheduler: %v", err)
	}
	if _, err := EffortConfig("", "huge"); err == nil || !strings.Contains(err.Error(), "unknown effort") {
		t.Errorf("unknown effort: %v", err)
	}
}
