// Command benchcheck is the bench-regression gate: it re-measures the
// repository's tracked performance metrics — kernel microbenchmarks
// (ns/op and allocs/op), live-gate overhead (serial plus RunParallel
// contention sweeps at GOMAXPROCS 2/4/8, and the Pool fast path),
// dispatch-policy pick cost at fleet sizes 8 and 1000 (the sampled
// "jsq-d" path must stay allocation-free and flat in N), stack build
// (buffer-pool warm-up for Table 2 setups 1, 5 and 11), one DBMS step
// (a committed transaction through the device models, and one
// uncontended lock acquire/release), and the
// deterministic summary numbers of the fig7, dispatch, slo, churn,
// autoscale, fairness, fig11 (setups 1/3/5), POW-ablation,
// policy-comparison and internal-vs-external figures — and compares
// them against the committed BENCH_baseline.json with per-metric
// tolerances. Any regression exits nonzero, which is what lets CI
// refuse a PR that slows a hot path or silently changes a figure.
//
//	benchcheck                                  # compare against BENCH_baseline.json
//	benchcheck -out BENCH_current.json          # also write the fresh measurements
//	benchcheck -update                          # re-baseline (when a speedup lands,
//	                                            # commit the refreshed file in the same PR)
//
// Two metric families behave differently:
//
//   - wall-time metrics (kind "time", direction lower-is-better) vary
//     with the host; their tolerances are wide (default 25%) so only a
//     real slowdown — the acceptance bar is catching a 30% one — trips
//     them, and re-baselining on new hardware is expected;
//   - alloc counts and figure summaries (kinds "allocs", "value") are
//     hardware-independent: allocs tolerate zero drift, figure values
//     a small band (they are deterministic given the seed, so drift
//     means the simulation's behavior changed).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"extsched/gate"
	"extsched/internal/cluster"
	"extsched/internal/dbms"
	"extsched/internal/experiments"
	"extsched/internal/lockmgr"
	"extsched/internal/sim"
	"extsched/internal/workload"
)

// Metric is one tracked measurement.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	// Kind is "time" (ns/op, host-dependent), "allocs" (allocs/op), or
	// "value" (deterministic figure summary).
	Kind string `json:"kind"`
	// Tolerance is the allowed relative drift (e.g. 0.25 = 25%). For
	// "time" and "allocs" only increases count against it
	// (lower-is-better); for "value" any drift does.
	Tolerance float64 `json:"tolerance"`
}

// Baseline is the committed reference file.
type Baseline struct {
	// Note documents how to regenerate the file.
	Note    string   `json:"note,omitempty"`
	Metrics []Metric `json:"metrics"`
}

func defaultTolerance(kind string) float64 {
	switch kind {
	case "time":
		return 0.25
	case "allocs":
		return 0
	default:
		return 0.10
	}
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "committed baseline file")
		outPath      = flag.String("out", "", "write the fresh measurements to this file")
		update       = flag.Bool("update", false, "rewrite the baseline from the fresh measurements (keeps existing per-metric tolerances)")
		timeTol      = flag.Float64("time-tolerance", 0, "override the tolerance of every \"time\"-kind metric (0 = use the baseline's). CI runs on whatever hardware it gets, so it widens these; local runs keep the strict per-metric values")
	)
	flag.Parse()

	fresh, err := measure()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	if *outPath != "" {
		if err := writeBaseline(*outPath, Baseline{Note: baselineNote, Metrics: fresh}); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
	}
	if *update {
		// Preserve hand-tuned tolerances for metrics that already exist.
		if old, err := readBaseline(*baselinePath); err == nil {
			tol := make(map[string]float64, len(old.Metrics))
			for _, m := range old.Metrics {
				tol[m.Name] = m.Tolerance
			}
			for i := range fresh {
				if t, ok := tol[fresh[i].Name]; ok {
					fresh[i].Tolerance = t
				}
			}
		}
		if err := writeBaseline(*baselinePath, Baseline{Note: baselineNote, Metrics: fresh}); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
		fmt.Printf("benchcheck: wrote %d metrics to %s\n", len(fresh), *baselinePath)
		return
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	if *timeTol > 0 {
		for i := range base.Metrics {
			if base.Metrics[i].Kind == "time" {
				base.Metrics[i].Tolerance = *timeTol
			}
		}
	}
	os.Exit(compare(base.Metrics, fresh))
}

const baselineNote = "regenerate with: go run ./cmd/benchcheck -update (see EXPERIMENTS.md for when re-baselining is legitimate)"

// compare reports PASS/FAIL per metric and returns the exit code.
func compare(base, fresh []Metric) int {
	cur := make(map[string]Metric, len(fresh))
	for _, m := range fresh {
		cur[m.Name] = m
	}
	sort.Slice(base, func(i, j int) bool { return base[i].Name < base[j].Name })
	code := 0
	fmt.Printf("%-40s %14s %14s %9s  %s\n", "metric", "baseline", "current", "drift", "verdict")
	for _, b := range base {
		c, ok := cur[b.Name]
		if !ok {
			fmt.Printf("%-40s %14.4g %14s %9s  FAIL (metric no longer measured)\n", b.Name, b.Value, "-", "-")
			code = 1
			continue
		}
		drift := 0.0
		if b.Value != 0 {
			drift = (c.Value - b.Value) / math.Abs(b.Value)
		} else if c.Value != 0 {
			drift = math.Inf(1)
		}
		bad := false
		switch b.Kind {
		case "time", "allocs":
			bad = drift > b.Tolerance
		default: // "value": deterministic — drift either way is a change
			bad = math.Abs(drift) > b.Tolerance
		}
		verdict := "ok"
		if bad {
			verdict = "FAIL"
			code = 1
		} else if b.Kind == "time" && drift < -b.Tolerance {
			verdict = "ok (improved — consider -update)"
		}
		fmt.Printf("%-40s %14.4g %14.4g %8.1f%%  %s\n", b.Name, b.Value, c.Value, drift*100, verdict)
	}
	for _, m := range fresh {
		found := false
		for _, b := range base {
			if b.Name == m.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("%-40s %14s %14.4g %9s  new metric (not in baseline; run -update)\n", m.Name, "-", m.Value, "-")
		}
	}
	if code != 0 {
		fmt.Println("benchcheck: REGRESSION against", "baseline")
	}
	return code
}

// measure runs every tracked measurement.
func measure() ([]Metric, error) {
	var out []Metric
	add := func(name, kind string, value float64) {
		out = append(out, Metric{Name: name, Value: value, Kind: kind, Tolerance: defaultTolerance(kind)})
	}

	// Kernel: one event scheduled and fired per op against a standing
	// population (the repository-root BenchmarkEngineSchedule).
	r := testing.Benchmark(func(b *testing.B) {
		eng := sim.NewEngine()
		fn := func() {}
		for i := 0; i < 1024; i++ {
			eng.After(float64(i)+0.5, fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.After(0.25, fn)
			eng.Step()
		}
	})
	add("kernel/engine_schedule/ns_op", "time", float64(r.NsPerOp()))
	add("kernel/engine_schedule/allocs_op", "allocs", float64(r.AllocsPerOp()))

	// Kernel: schedule→cancel→discard (free-list recycling path).
	r = testing.Benchmark(func(b *testing.B) {
		eng := sim.NewEngine()
		fn := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := eng.After(1, fn)
			eng.Cancel(h)
			eng.Run(eng.Now())
		}
	})
	add("kernel/engine_schedule_cancel/ns_op", "time", float64(r.NsPerOp()))
	add("kernel/engine_schedule_cancel/allocs_op", "allocs", float64(r.AllocsPerOp()))

	// Live gate: the uncontended Acquire/Release hot path (gate
	// BenchmarkGateAcquireRelease, single-goroutine so the number is
	// the pure per-call overhead).
	g, err := gate.New(gate.Config{})
	if err != nil {
		return nil, err
	}
	r = testing.Benchmark(func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk, err := g.Acquire(ctx)
			if err != nil {
				b.Fatal(err)
			}
			tk.Release(gate.Result{})
		}
	})
	add("gate/acquire_release/ns_op", "time", float64(r.NsPerOp()))
	add("gate/acquire_release/allocs_op", "allocs", float64(r.AllocsPerOp()))

	// Live gate under contention: the same uncontended-admission path
	// driven from N goroutines on N procs (gate
	// BenchmarkGateAcquireReleaseParallel at -cpu 2,4,8). On a 1-core
	// runner the goroutines timeslice, so ns/op is not a scaling
	// number there — but allocs/op must still be exactly 0, and a
	// gross slowdown (a lock sneaking back onto the fast path) still
	// trips the wide time tolerance.
	prev := runtime.GOMAXPROCS(0)
	for _, n := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(n)
		gp, err := gate.New(gate.Config{})
		if err != nil {
			runtime.GOMAXPROCS(prev)
			return nil, err
		}
		r = testing.Benchmark(func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					tk, err := gp.Acquire(ctx)
					if err != nil {
						b.Error(err)
						return
					}
					tk.Release(gate.Result{})
				}
			})
		})
		add(fmt.Sprintf("gate/acquire_release_parallel_cpu%d/ns_op", n), "time", float64(r.NsPerOp()))
		add(fmt.Sprintf("gate/acquire_release_parallel_cpu%d/allocs_op", n), "allocs", float64(r.AllocsPerOp()))
	}

	// Pool fast path: routing (one short mutexed pick) plus the member
	// gate's lock-free admission, 4 members round-robin on 4 procs.
	runtime.GOMAXPROCS(4)
	pl, err := gate.NewPool(gate.PoolConfig{Members: 4, Dispatch: "rr"})
	if err != nil {
		runtime.GOMAXPROCS(prev)
		return nil, err
	}
	r = testing.Benchmark(func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				tk, err := pl.Acquire(ctx)
				if err != nil {
					b.Error(err)
					return
				}
				tk.Release(gate.Result{})
			}
		})
	})
	runtime.GOMAXPROCS(prev)
	add("gate/pool_acquire_release_parallel_cpu4/ns_op", "time", float64(r.NsPerOp()))
	add("gate/pool_acquire_release_parallel_cpu4/allocs_op", "allocs", float64(r.AllocsPerOp()))

	// Dispatch pick cost: the per-transaction routing decision at fleet
	// sizes 8 and 1000 for full-scan jsq versus sampled jsq-d. The
	// sampled path is what makes thousand-shard fleets tractable, so it
	// must stay allocation-free, and its N=1000 cost within 2x of its
	// N=8 cost (the scaling ratio metric carries a hand-tuned tolerance
	// of 1.0: it only fails when the ratio doubles, i.e. the pick cost
	// stops being flat in N).
	pickCost := func(policyName string, n int) (nsOp, allocsOp float64, err error) {
		p, err := cluster.NewPolicySeeded(policyName, 1)
		if err != nil {
			return 0, 0, err
		}
		loads := make([]cluster.Load, n)
		for i := range loads {
			loads[i] = cluster.Load{Backlog: (i * 7) % 13, Work: float64((i * 5) % 11), Speed: 1}
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := p.Pick(loads, 0, 1)
				loads[j].Backlog++
				loads[(i+j)%n].Backlog--
			}
		})
		return float64(r.NsPerOp()), float64(r.AllocsPerOp()), nil
	}
	var sampledNs [2]float64
	for i, n := range []int{8, 1000} {
		ns, _, err := pickCost("jsq", n)
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("dispatch_pick/jsq_n%d/ns_op", n), "time", ns)
		ns, allocs, err := pickCost("jsq-d:3", n)
		if err != nil {
			return nil, err
		}
		sampledNs[i] = ns
		add(fmt.Sprintf("dispatch_pick/jsq-d_n%d/ns_op", n), "time", ns)
		add(fmt.Sprintf("dispatch_pick/jsq-d_n%d/allocs_op", n), "allocs", allocs)
	}
	out = append(out, Metric{
		Name:      "dispatch_pick/jsq-d_n1000_vs_n8_ratio",
		Value:     sampledNs[1] / sampledNs[0],
		Kind:      "time",
		Tolerance: 1.0,
	})

	// Stack build: warming a fresh buffer pool for Table 2 setups 1
	// (fully cached), 5 (pool far below the database) and 11 (partly
	// cached) — internal/workload BenchmarkPrewarm. The DB build is not
	// timed. allocs/op is counted on one warm-up with the GC off: a GC
	// cycle lets runtime background work (the unique package's map
	// cleanup, linked in with net/http) allocate, so counting under
	// b.N would drift with how many cycles a run happens to trigger.
	for _, id := range []int{1, 5, 11} {
		setup, err := workload.SetupByID(id)
		if err != nil {
			return nil, err
		}
		cfg := setup.BuildConfig(workload.DBOptions{Seed: 1})
		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, err := dbms.New(sim.NewEngine(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				workload.Prewarm(db, setup.Workload, 1)
			}
		})
		db, err := dbms.New(sim.NewEngine(), cfg)
		if err != nil {
			return nil, err
		}
		gcPercent := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		workload.Prewarm(db, setup.Workload, 1)
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gcPercent)
		add(fmt.Sprintf("stack/prewarm/setup%d/ns_op", id), "time", float64(r.NsPerOp()))
		add(fmt.Sprintf("stack/prewarm/setup%d/allocs_op", id), "allocs", float64(after.Mallocs-before.Mallocs))
	}

	// One DBMS step: a committed transaction through the lock manager,
	// CPU scheduler, buffer pool and disks, in a closed loop of 10 over
	// pre-generated setup-11 profiles (internal/dbms BenchmarkDBMSTxn),
	// and one uncontended lock Begin/Acquire/Release (the repository-
	// root BenchmarkLockAcquireRelease). allocs/op is counted as for
	// stack/prewarm: on one warmed pass with the GC off.
	loop, err := newTxnLoop(11, 10)
	if err != nil {
		return nil, err
	}
	loop.run(2000)
	r = testing.Benchmark(func(b *testing.B) { loop.run(b.N) })
	add("dbms/txn/ns_op", "time", float64(r.NsPerOp()))
	add("dbms/txn/allocs_op", "allocs", float64(warmAllocsPerOp(5000, loop.run)))
	mgr := lockmgr.New(sim.NewEngine(), lockmgr.Config{OnAbort: func(lockmgr.TxnID, lockmgr.AbortReason) {}})
	var txn lockmgr.TxnID
	lockPass := func(n int) {
		for i := 0; i < n; i++ {
			txn++
			mgr.Begin(txn, lockmgr.Low)
			mgr.Acquire(txn, uint64(txn%1024), lockmgr.X, nil)
			mgr.Release(txn)
		}
	}
	lockPass(1000)
	r = testing.Benchmark(func(b *testing.B) { lockPass(b.N) })
	add("lockmgr/acquire_release/ns_op", "time", float64(r.NsPerOp()))
	add("lockmgr/acquire_release/allocs_op", "allocs", float64(warmAllocsPerOp(100000, lockPass)))

	// Figure summaries: deterministic given the seed, so drift means
	// the simulation's behavior changed, not the host.
	opts := experiments.RunOpts{Warmup: 20, Measure: 120, Seed: 1}
	fig7, err := experiments.Figure7()
	if err != nil {
		return nil, err
	}
	addFigure(&out, fig7)
	dispatch, err := experiments.DispatchFigure(3, 0.25, opts)
	if err != nil {
		return nil, err
	}
	addFigure(&out, dispatch)
	slo, err := experiments.SLOFigure(3, 0, opts)
	if err != nil {
		return nil, err
	}
	addFigure(&out, slo)
	churn, err := experiments.ChurnFigure(3, opts)
	if err != nil {
		return nil, err
	}
	addFigure(&out, churn)
	autoscale, err := experiments.AutoscaleFigure(3, opts)
	if err != nil {
		return nil, err
	}
	addFigure(&out, autoscale)
	fair, err := experiments.FairnessFigure(2, opts)
	if err != nil {
		return nil, err
	}
	addFigure(&out, fair)
	fig11, err := experiments.Figure11(0.05, []int{1, 3, 5}, opts)
	if err != nil {
		return nil, err
	}
	addFigure(&out, fig11)
	pow, err := experiments.POWAblation(opts)
	if err != nil {
		return nil, err
	}
	addFigure(&out, pow)
	policies, err := experiments.PolicyComparison(3, 10, opts)
	if err != nil {
		return nil, err
	}
	addFigure(&out, policies)
	internal, err := experiments.FigureInternal(3, opts)
	if err != nil {
		return nil, err
	}
	addFigure(&out, internal)
	return out, nil
}

// addFigure folds each series of a figure into one tracked mean.
// warmAllocsPerOp counts the allocations of pass(n) with the GC off
// and returns them per op, truncated like testing's AllocsPerOp.
func warmAllocsPerOp(n int, pass func(int)) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass(n)
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(n)
}

// txnLoop keeps a fixed number of transactions inside a prewarmed DB,
// cycling through pre-generated profiles so the workload generator is
// not measured.
type txnLoop struct {
	eng      *sim.Engine
	db       *dbms.DB
	profiles []dbms.TxnProfile
	next     int
	clients  int
	left     int
	onDone   func(dbms.Result)
}

func newTxnLoop(setupID, clients int) (*txnLoop, error) {
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	db, err := dbms.New(eng, setup.BuildConfig(workload.DBOptions{Seed: 1}))
	if err != nil {
		return nil, err
	}
	workload.Prewarm(db, setup.Workload, 1)
	gen, err := workload.NewGenerator(setup.Workload, 1)
	if err != nil {
		return nil, err
	}
	l := &txnLoop{eng: eng, db: db, clients: clients}
	for i := 0; i < 1024; i++ {
		l.profiles = append(l.profiles, gen.Next())
	}
	l.onDone = func(dbms.Result) { l.dispatch() }
	return l, nil
}

func (l *txnLoop) dispatch() {
	if l.left == 0 {
		return
	}
	l.left--
	p := l.profiles[l.next]
	l.next = (l.next + 1) % len(l.profiles)
	l.db.Exec(p, l.onDone)
}

// run commits n more transactions and drains the engine.
func (l *txnLoop) run(n int) {
	l.left = n
	for i := 0; i < l.clients; i++ {
		l.dispatch()
	}
	l.eng.RunAll()
}

func addFigure(out *[]Metric, f *experiments.Figure) {
	for _, s := range f.Series {
		if len(s.Y) == 0 {
			continue
		}
		sum := 0.0
		for _, y := range s.Y {
			sum += y
		}
		*out = append(*out, Metric{
			Name:      fmt.Sprintf("%s/%s/mean", f.ID, sanitize(s.Name)),
			Value:     sum / float64(len(s.Y)),
			Kind:      "value",
			Tolerance: defaultTolerance("value"),
		})
	}
}

// sanitize makes a series name metric-friendly.
func sanitize(name string) string {
	r := strings.NewReplacer(" ", "_", "(", "", ")", "", "/", "-", ",", "")
	return r.Replace(name)
}

func readBaseline(path string) (Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Baseline{}, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return Baseline{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return b, nil
}

func writeBaseline(path string, b Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
