// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed wall time and prints its metrics, ending with
// one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//   - paper-sweep: the paper's closed system over an MPL ladder and six
//     Table 2 setups, built from the internal constructors that
//     internal/experiments uses;
//   - fleet-churn: one long open-system scenario through System.Run on
//     an eight-shard fleet with failures, recovery and snapshots;
//   - gate-http: a closed loop of HTTP/1.1 clients through the live
//     gate's middleware over loopback.
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// spends the first half of the run untraced and the second half with
// layer spans and a CPU profile, and prints the per-layer metrics.
// Every simulated run is fingerprinted and compared with the other
// repetitions of the run and, for the seeds refs.json holds, with the
// stored reference; any mismatch or bad HTTP response fails the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"
)

// Every metric the benchmark reports, with its unit. end-to-end metrics
// come from untraced runs, layer metrics from traced ones.
var (
	e2eUnits = map[string]string{
		"txn_per_s":   "1/s",
		"rt_p50_us":   "us",
		"setup_s":     "s",
		"peak_rss_mb": "MB",
	}
	layerUnits = map[string]string{
		// rt_p99_us is an end-to-end figure, taken from the untraced
		// half of a traced run. It is reported here, without a bound,
		// because on a shared 2-vCPU host other guests moved it by up to
		// 25% between sets of ten runs.
		"rt_p99_us":              "us",
		"workload.prewarm_s":     "s",
		"dbms.new_s":             "s",
		"runner.run_s":           "s",
		"sim.events":             "count",
		"sim.ns_per_event":       "ns",
		"runner.alloc_b_per_txn": "B",
		"bufferpool.hit_ratio":   "ratio",
		"bufferpool.misses":      "count",
		"lockmgr.waits":          "count",
		"lockmgr.deadlocks":      "count",
		"dbms.useful_ratio":      "ratio",
		"sim.events_per_txn":     "count",
		"core.ext_wait_s":        "s",
		"cluster.routed":         "count",
		"cluster.resubmitted":    "count",
		"runner.snapshots":       "count",
		"gate.admit_us_p50":      "us",
		"gate.admit_us_p99":      "us",
		"gate.release_us_p50":    "us",
		"gate.wait_us_mean":      "us",
		"http.overhead_us_p50":   "us",
		"handler.us_p50":         "us",
		"trace.overhead_s":       "s",
		"trace.overhead_frac":    "ratio",
		"prof.samples":           "count",
	}
)

func init() {
	for _, m := range profLayers {
		layerUnits[m] = "ratio"
	}
	layerUnits[profGC] = "ratio"
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	out     string // directory for span and profile files
	refs    references
	// save, when set, stores this run's fingerprints as the reference
	// for its seed instead of checking them.
	save string
}

// simSeed is the simulator seed a benchmark seed selects (the
// simulator reads seed 0 as "default").
func (c config) simSeed() uint64 { return uint64(c.seed) + 1 }

// report is a workload's result.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
}

var workloads = map[string]func(config) (report, error){
	"paper-sweep": paperSweep,
	"fleet-churn": fleetChurn,
	"gate-http":   gateHTTP,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: paper-sweep, fleet-churn or gate-http")
	seed := flag.Int64("seed", 0, "input seed (>= 0)")
	seconds := flag.Float64("seconds", 30, "wall seconds to measure")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for span and CPU profile files")
	save := flag.String("write-refs", "", "store this run's fingerprints in the given refs.json instead of checking them")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seed < 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seed %d, seconds %v, trace %d)\n",
			*name, *seed, *seconds, *traceFlag)
		flag.Usage()
		return 2
	}
	if _, err := cpuTime(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, out: *out, refs: refs, save: *save}
	fmt.Printf("workload %s seed %d seconds %v trace %d GOMAXPROCS %d NumCPU %d\n",
		*name, *seed, *seconds, *traceFlag, runtime.GOMAXPROCS(0), runtime.NumCPU())
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	units := e2eUnits
	if cfg.trace {
		units = layerUnits
	} else {
		rep.metrics["peak_rss_mb"] = peakRSSMB()
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]metric{}
	for k, unit := range units {
		v, ok := rep.metrics[k]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s missing or not finite (%v)\n", k, v)
			return 1
		}
		ms[k] = metric{v, unit}
	}
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Printf("metric %-24s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
	fmt.Printf("fail_frac %g (%d failed of %d attempted)\n",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	correct := rep.failed == 0 && rep.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// profiler records a CPU profile for the traced half of a run.
type profiler struct {
	path string
	f    *os.File
}

func startProfile(cfg config, workload string) (*profiler, error) {
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.cpu.pprof", workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{path: path, f: f}, nil
}

// stop ends the profile and adds the prof.* shares to m.
func (p *profiler) stop(m map[string]float64) error {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return err
	}
	shares, n, err := profShares(p.path)
	if err != nil {
		return err
	}
	for k, v := range shares {
		m[k] = v
	}
	m["prof.samples"] = float64(n)
	return nil
}

// writeSpans saves a traced run's spans next to its profile.
func writeSpans(cfg config, workload string, tr *tracer) error {
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.spans.csv", workload, cfg.seed))
	fmt.Printf("spans %d written to %s\n", len(tr.spans), path)
	return tr.write(path)
}

// checkFPs compares one repetition's fingerprints with the first
// repetition's and, when refs.json holds this seed, with the reference.
// It returns the number of mismatching runs.
func checkFPs(cfg config, workload string, first, got []runFP) int64 {
	bad := mismatches(got, first)
	if want, ok := cfg.refs.lookup(workload, cfg.seed); ok && cfg.save == "" {
		if n := mismatches(got, want); n > bad {
			bad = n
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d runs differ from their reference\n", workload, cfg.seed, bad)
	}
	return int64(bad)
}

// percentile returns the q-th percentile (0..100) of xs by nearest rank;
// it sorts xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	i := int(math.Ceil(q/100*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	ys := slices.Clone(xs)
	slices.Sort(ys)
	n := len(ys)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func secs(d time.Duration) float64 { return d.Seconds() }
