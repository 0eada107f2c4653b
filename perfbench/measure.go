package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported figure.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// result is what one run of one workload reports.
type result struct {
	Attempted int
	Failed    int
	// Unexplained counts failures that are not one of the known defects
	// listed in README.md; any makes the run incorrect.
	Unexplained int
	Metrics     []metric
	// Notes are human-readable lines printed before the result.
	Notes []string
}

func (r *result) add(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, metric{name, unit, v})
}

func (r *result) note(s string) { r.Notes = append(r.Notes, s) }

// latencies collects per-op durations.
type latencies []time.Duration

// quantile returns the q-quantile in milliseconds, interpolating
// between the two nearest ranks. It sorts l in place.
func (l latencies) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	slices.Sort(l)
	s := l
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := lo
	if hi+1 < len(s) {
		hi++
	}
	frac := pos - float64(lo)
	v := float64(s[lo])*(1-frac) + float64(s[hi])*frac
	return v / float64(time.Millisecond)
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rssMark takes the peak resident set once, when a run has done a fixed
// quantum of timed work. The programs under test retain memory per
// request (see README.md), so peak RSS at the end of a fixed-length run
// would grow with speed; at a fixed amount of work it does not.
type rssMark struct {
	once sync.Once
	mb   float64
}

func (m *rssMark) take() { m.once.Do(func() { m.mb = peakRSSMB() }) }

// value returns the mark, taking it now if the quantum was never reached.
func (m *rssMark) value() float64 {
	m.take()
	return m.mb
}

// The host's vCPUs share physical cores with other tenants, whose load
// slows execution by up to 1.8x for a fraction of a second to several
// seconds at a time. A timed loop repeats the same kinds of op (one
// request of the working set, one kernel's census, one regeneration of
// the suite), so the end-to-end timings are taken over the fastest
// quarter of each kind's repetitions: those measure the program rather
// than its neighbours, and every kind keeps its weight.
const keptShare = 0.25

// timing records the ops of one timed loop by kind.
type timing struct {
	start time.Time
	kinds []latencies
	n     int
}

// startTiming starts a loop over ops of the given number of kinds.
func startTiming(kinds int) *timing {
	return &timing{start: time.Now(), kinds: make([]latencies, kinds)}
}

// add records an op of the given kind that took lat.
func (t *timing) add(kind int, lat time.Duration) {
	t.kinds[kind] = append(t.kinds[kind], lat)
	t.n++
}

// all returns every op's latency.
func (t *timing) all() latencies {
	var l latencies
	for _, k := range t.kinds {
		l = append(l, k...)
	}
	return l
}

// fastest pools the fastest keptShare of every kind's repetitions.
func (t *timing) fastest() latencies {
	var l latencies
	for _, k := range t.kinds {
		s := slices.Clone(k)
		slices.Sort(s)
		l = append(l, s[:int(math.Ceil(keptShare*float64(len(s))))]...)
	}
	return l
}

// reportEndToEnd adds the end-to-end metrics of an untraced run: every
// workload reports all of them. quantum names the work after which rss
// was taken.
func (r *result) reportEndToEnd(setup float64, t *timing, rss *rssMark, quantum string) {
	lats := t.fastest()
	r.add("setup_s", "s", setup)
	r.add("ops_per_s", "1/s", float64(len(lats))/sum(lats).Seconds())
	r.add("p50_ms", "ms", lats.quantile(0.5))
	r.add("p90_ms", "ms", lats.quantile(0.9))
	r.add("rss_mb", "MiB", rss.value())
	r.add("ok_ratio", "ratio", float64(r.Attempted-r.Failed)/float64(r.Attempted))
	all := t.all()
	r.note(fmt.Sprintf("timed %d ops of %d kinds in %.1f s; timings over the fastest %g of each kind (%d ops); over every op: %.6g ops/s, p50 %.6g ms, p90 %.6g ms",
		t.n, len(t.kinds), time.Since(t.start).Seconds(), keptShare, len(lats),
		float64(len(all))/sum(all).Seconds(), all.quantile(0.5), all.quantile(0.9)))
	r.note(fmt.Sprintf("peak RSS: %.1f MiB after set-up and %s; %.1f MiB at the end of the run", rss.value(), quantum, peakRSSMB()))
}

// sum is the total of l.
func sum(l latencies) time.Duration {
	var d time.Duration
	for _, x := range l {
		d += x
	}
	return d
}

// liveHeapBytes returns the live heap after two full collections (the
// second also frees what sync.Pools held over from the first).
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// gcStats is a snapshot of the collector's cumulative counters.
type gcStats struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{ms.NumGC, ms.PauseTotalNs}
}

// heapAllocs reads the cumulative count of heap objects allocated by
// the process, without stopping the world. The sample is shared so that
// reading it allocates nothing.
var allocSample = struct {
	sync.Mutex
	s []metrics.Sample
}{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}

func heapAllocs() uint64 {
	allocSample.Lock()
	defer allocSample.Unlock()
	metrics.Read(allocSample.s)
	if allocSample.s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return allocSample.s[0].Value.Uint64()
}
