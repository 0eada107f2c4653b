package main

import (
	"fmt"
	"math/rand"
	"strings"

	"slms/internal/bench"
	"slms/internal/source"
)

// The serve workloads send the 39 bench.KernelsExtended kernels to the
// four pipeline endpoints. /v1/compile and /v1/explain take no target;
// /v1/schedule and /v1/profile take one of eight (machine, compiler)
// pairs, all at -O3.

var endpoints = []string{"compile", "explain", "schedule", "profile"}

var machines = []string{"ia64", "power4", "pentium", "arm7"}
var compilers = []string{"weak", "strong"}

type target struct{ machine, compiler string }

func (t target) String() string {
	if t.machine == "" {
		return "-"
	}
	return t.machine + "/" + t.compiler
}

func allTargets() []target {
	var ts []target
	for _, m := range machines {
		for _, c := range compilers {
			ts = append(ts, target{m, c})
		}
	}
	return ts
}

func takesTarget(endpoint string) bool { return endpoint == "schedule" || endpoint == "profile" }

// knownFailing are the kernels every -O3 target rejects with SLMS422
// "array has dimension 0": backend.ListSchedule hoists the scalar
// initialiser `ld dx[0]` above the mov that sets the array's dimension
// register. The serve workloads keep them in every draw and count the
// rejections as failures, so the fix shows as a rise in ok_ratio.
var knownFailing = map[string]bool{"kernel24": true, "idamax": true, "idamax2": true}

// expectFailure reports whether a request is one of the known failures.
func expectFailure(kernel, endpoint string) bool {
	return knownFailing[kernel] && takesTarget(endpoint)
}

// request is one entry of a serve workload's program set: which kernel,
// endpoint and target. The program text is made per round by prefixing
// every identifier, so each request is a program no cache has seen.
type request struct {
	kernel   int // index into the kernel list
	endpoint string
	target   target
}

func (r request) key(ks []bench.Kernel) string {
	return ks[r.kernel].Name + " " + r.endpoint + " " + r.target.String()
}

// coldSet is the serve-cold program set: every kernel on every endpoint
// and every target. /v1/compile and /v1/explain take no target, so
// each kernel is sent to them once per target too, each time as its own
// program; that keeps the four endpoints equally frequent.
func coldSet(nKernels int) []request {
	var set []request
	for k := 0; k < nKernels; k++ {
		for _, t := range allTargets() {
			for _, ep := range endpoints {
				r := request{kernel: k, endpoint: ep}
				if takesTarget(ep) {
					r.target = t
				}
				set = append(set, r)
			}
		}
	}
	return set
}

// cachedSet is the serve-cached working set: every kernel on every
// endpoint once, the schedule and profile requests spreading the
// kernels evenly over the eight targets in a seeded order.
func cachedSet(rng *rand.Rand, nKernels int) []request {
	ts := allTargets()
	var set []request
	for _, ep := range endpoints {
		perm := rng.Perm(nKernels)
		for i, k := range perm {
			r := request{kernel: k, endpoint: ep}
			if takesTarget(ep) {
				r.target = ts[i%len(ts)]
			}
			set = append(set, r)
		}
	}
	return set
}

// prefixLen is the length of every identifier prefix. All prefixes
// have the same length, so line:col positions in a reply do not depend
// on which prefix a program got, and one shared prefix keeps the
// relative order of a program's names.
const prefixLen = 12

// refPrefix names the identifiers of the reference programs rendered
// at set-up; a reply is checked by mapping its prefix back to this one.
const refPrefix = "p00000000000"

// programPrefix is the prefix of the n-th program a run serves: unique
// within the run and derived from the seed.
func programPrefix(seed int64, n int) string {
	p := fmt.Sprintf("p%04x%07x", uint64(seed)&0xffff, n+1)
	if len(p) != prefixLen {
		panic("perfbench: program counter overflows its prefix")
	}
	return p
}

// renameIdents writes src with prefix in front of every identifier
// except intrinsic call names.
func renameIdents(src, prefix string) (string, error) {
	toks, err := source.Tokenize(src)
	if err != nil {
		return "", err
	}
	lineStart := []int{0}
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			lineStart = append(lineStart, i+1)
		}
	}
	var b strings.Builder
	b.Grow(len(src) + 16*len(toks))
	last := 0
	for i, t := range toks {
		if t.Kind != source.IDENT || (i+1 < len(toks) && toks[i+1].Kind == source.LPAREN) {
			continue
		}
		off := lineStart[t.Pos.Line-1] + t.Pos.Col - 1
		b.WriteString(src[last:off])
		b.WriteString(prefix)
		last = off
	}
	b.WriteString(src[last:])
	return b.String(), nil
}
