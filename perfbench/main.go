// Command perfbench is the repository's benchmark: four workloads over
// the SLMS compiler and its slmsd service, each run for a fixed time
// from a seed, with every op's output checked. See README.md.
//
//	perfbench --workload paper-suite --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the workload's end-to-end figures; with --trace 1 they
// are the per-layer figures of a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"slms/internal/bench"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// setupReps is how many times a run sets up its workload; setup_s is
// the median.
const setupReps = 5

// clients is the number of closed-loop clients of every workload: one,
// so that other tenants of a small host take as little as possible of
// what the timings measure.
const clients = 1

type workload struct {
	name string
	run  func(cfg runConfig) (*result, error)
}

var workloads = []workload{
	{"paper-suite", runPaperSuite},
	{"optgap", runOptgap},
	{"serve-cold", runServeCold},
	{"serve-cached", runServeCached},
}

func main() {
	name := flag.String("workload", "", "workload: paper-suite, optgap, serve-cold or serve-cached")
	seed := flag.Int64("seed", 1, "seed for every random draw of the workload")
	seconds := flag.Float64("seconds", 15, "how long the timed loop runs")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for result and span files")
	flag.Parse()

	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	host := hostBlock()
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("host: %s\n", host)
	start := time.Now()
	res, err := w.run(cfg)
	if err != nil {
		return err
	}
	for _, n := range res.Notes {
		fmt.Println(n)
	}
	for _, m := range res.Metrics {
		fmt.Printf("  %-36s %24s %s\n", m.Name, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
	}
	fmt.Printf("wall %.1fs\n", time.Since(start).Seconds())

	metrics := map[string]any{}
	for _, m := range res.Metrics {
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line := map[string]any{
		"correct":   res.Unexplained == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	}
	file := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"host": host, "result": line, "notes": res.Notes,
	}
	if err := writeJSON(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, b2i(cfg.trace)), file); err != nil {
		return err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// host describes the machine a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Workers    int    `json:"worker_pool"`
	Clients    int    `json:"clients"`
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q worker_pool=%d clients=%d",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU, h.Workers, h.Clients)
}

func hostBlock() host {
	return host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpuModel(), Workers: bench.Workers(), Clients: clients,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// timeSetups runs fn setupReps times and returns the median duration in
// seconds; the state of the last run is the one the workload keeps.
// Each set-up starts from a collected heap, so neither its time nor the
// peak resident set depends on when the previous one's garbage is
// collected.
func timeSetups(fn func()) float64 {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		fn()
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds)
}
