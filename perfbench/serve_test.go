package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"slms/internal/analysis"
	"slms/internal/bench"
)

// TestKnownRejectionsPinned pins the serve workloads' failure share.
// kernel24, idamax and idamax2 are rejected with SLMS422 "array has
// dimension 0" on every -O3 target (backend.ListSchedule hoists a
// scalar initialiser's load above the mov of the array's dimension
// register); every other request succeeds. When that defect is fixed
// this test fails: update the pinned share, and ok_ratio rises.
func TestKnownRejectionsPinned(t *testing.T) {
	bench.ResetHarnessState()
	ks := bench.KernelsExtended()
	c := newClient(newServer().Handler())
	seen := map[string]bool{}
	rejected := 0
	for i, r := range coldSet(len(ks)) {
		key := r.key(ks)
		if seen[key] {
			continue
		}
		seen[key] = true
		src, err := renameIdents(ks[r.kernel].Source, programPrefix(1, i))
		if err != nil {
			t.Fatal(err)
		}
		status, body := c.do(r.endpoint, requestBody(src, r.target))
		want := expectFailure(ks[r.kernel].Name, r.endpoint)
		got := status == 422 && bytes.Contains(body, []byte(`"SLMS422"`))
		if got {
			rejected++
		}
		if got != want || (!got && status != 200) {
			t.Errorf("%s: status %d, known rejection %v", key, status, want)
		}
	}
	// 3 kernels x {schedule, profile} x 8 targets.
	if rejected != 48 {
		t.Errorf("%d distinct requests rejected, want 48", rejected)
	}
	set := coldSet(len(ks))
	if n := countExpected(ks, set); n != 48 || len(set) != 1248 {
		t.Errorf("serve-cold round: %d of %d requests are known rejections, want 48 of 1248", n, len(set))
	}
	for seed := int64(1); seed <= 3; seed++ {
		set := cachedSet(rand.New(rand.NewSource(seed)), len(ks))
		if n := countExpected(ks, set); n != 6 || len(set) != 156 {
			t.Errorf("serve-cached seed %d: %d of %d requests are known rejections, want 6 of 156", seed, n, len(set))
		}
	}
}

func countExpected(ks []bench.Kernel, set []request) int {
	n := 0
	for _, r := range set {
		if expectFailure(ks[r.kernel].Name, r.endpoint) {
			n++
		}
	}
	return n
}

// TestExplainWitnessesProven checks the witness proof that the serve
// workloads apply to explain replies naming another recurrence than
// their reference: every witness the server gives is proven, and the
// same recurrence claimed to forbid one II more, or to need one II
// more, is not.
func TestExplainWitnessesProven(t *testing.T) {
	bench.ResetHarnessState()
	c := newClient(newServer().Handler())
	proven := 0
	for _, k := range bench.KernelsExtended() {
		src, err := renameIdents(k.Source, refPrefix)
		if err != nil {
			t.Fatal(err)
		}
		status, body := c.do("explain", requestBody(src, target{}))
		if status != 200 {
			t.Fatalf("%s: explain status %d", k.Name, status)
		}
		var rep struct {
			Diagnostics []analysis.Diag `json:"diagnostics"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		gs, err := explainGraphs(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range rep.Diagnostics {
			if !isWitness(d) {
				continue
			}
			if !gs.validWitness(d) {
				t.Errorf("%s: witness not proven: %s", k.Name, d.Message)
			}
			proven++
			if m := appliedRe.FindStringSubmatch(d.Message); m != nil {
				ii, _ := strconv.Atoi(m[1])
				d.Message = fmt.Sprintf("pipelined at II=%d; recurrence %s forbids II=%d", ii+1, m[2], ii)
			} else if m := noIIRe.FindStringSubmatch(d.Message); m != nil {
				need, _ := strconv.Atoi(m[2])
				d.Message = strings.Replace(d.Message, "II ≥ "+m[2], "II ≥ "+strconv.Itoa(need+1), 1)
			} else {
				continue
			}
			if gs.validWitness(d) {
				t.Errorf("%s: false witness proven: %s", k.Name, d.Message)
			}
		}
	}
	if proven == 0 {
		t.Fatal("no explain reply names a recurrence")
	}
	t.Logf("%d witnesses proven", proven)
}
