package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"
)

// rep is one repetition of a simulator workload: a whole paper-sweep
// grid, or one fleet-churn scenario run. Its end-to-end times are the
// process's CPU time (see cpuNow); wall is kept for the tracing
// overhead.
type rep struct {
	wall      time.Duration // wall time of the whole repetition
	setup     time.Duration // CPU time building the stacks
	run       time.Duration // CPU time running them, stack builds excluded
	completed uint64
	// costUS is, per simulated run, its CPU microseconds (stack build
	// included) per transaction it completed.
	costUS []float64
	fps    []runFP
	layers layerCounts // traced repetitions only
}

// layerCounts are the per-layer figures a traced repetition collects
// around its calls into each layer.
type layerCounts struct {
	dbNew, prewarm, run        time.Duration
	events, allocB             uint64
	poolHits, poolMisses       uint64
	lockWaits, deadlocks       uint64
	committed, aborted         uint64
	extWaitSum                 float64 // seconds, summed over completions
	routed, resubmitted, snaps uint64
}

// simLoop repeats do until cfg.seconds have passed (at least once) and
// turns the repetitions into the workload's metrics. A traced run
// spends the first half untraced, to measure the tracing overhead, and
// the second half traced.
func simLoop(cfg config, name string, do func(tr *tracer) (rep, error)) (report, error) {
	var (
		plain, traced []rep
		first         []runFP
		r             report
	)
	check := func(x rep) {
		r.attempted += int64(len(x.fps))
		if first == nil {
			first = x.fps
		}
		r.failed += checkFPs(cfg, name, first, x.fps)
	}
	untracedFor := cfg.seconds
	if cfg.trace {
		untracedFor /= 2
	}
	start := time.Now()
	for len(plain) == 0 || secs(time.Since(start)) < untracedFor {
		x, err := do(nil)
		if err != nil {
			return r, err
		}
		check(x)
		plain = append(plain, x)
	}
	r.metrics = map[string]float64{}
	rtMetrics(r.metrics, plain)
	if cfg.trace {
		prof, err := startProfile(cfg, name)
		if err != nil {
			return r, err
		}
		tr := newTracer()
		for len(traced) == 0 || secs(time.Since(start)) < cfg.seconds {
			x, err := do(tr)
			if err != nil {
				prof.stop(r.metrics)
				return r, err
			}
			check(x)
			traced = append(traced, x)
		}
		if err := prof.stop(r.metrics); err != nil {
			return r, err
		}
		if err := writeSpans(cfg, name, tr); err != nil {
			return r, err
		}
		layerMetrics(r.metrics, plain, traced)
	} else {
		e2eMetrics(r.metrics, plain)
	}
	fmt.Printf("repetitions %d untraced, %d traced; simulated runs checked %d\n", len(plain), len(traced), r.attempted)
	if cfg.save != "" {
		if err := saveRef(cfg.save, name, cfg.seed, first); err != nil {
			return r, err
		}
		fmt.Printf("reference for %s seed %d written to %s\n", name, cfg.seed, cfg.save)
	}
	return r, nil
}

// e2eMetrics reports the median over repetitions of each figure.
func e2eMetrics(m map[string]float64, reps []rep) {
	var rates, setups, walls, cpus []float64
	for _, x := range reps {
		rates = append(rates, float64(x.completed)/secs(x.run))
		setups = append(setups, secs(x.setup))
		walls = append(walls, secs(x.wall))
		cpus = append(cpus, secs(x.setup+x.run))
	}
	fmt.Printf("per repetition: median %.4g wall seconds, %.4g CPU seconds\n", median(walls), median(cpus))
	m["txn_per_s"] = median(rates)
	m["setup_s"] = median(setups)
}

// rtMetrics reports rt_p50_us and rt_p99_us from untraced repetitions.
// Each percentile is taken within a repetition first, over its simulated
// runs, and the median over repetitions is reported, so one stalled run
// moves one repetition's p99 and not the reported one.
func rtMetrics(m map[string]float64, reps []rep) {
	var p50s, p99s []float64
	n := 0
	for _, x := range reps {
		p50s = append(p50s, percentile(x.costUS, 50))
		p99s = append(p99s, percentile(x.costUS, 99))
		n += len(x.costUS)
	}
	m["rt_p50_us"] = median(p50s)
	m["rt_p99_us"] = median(p99s)
	fmt.Printf("rt samples %d (one per simulated run) in %d repetitions; rt_p99_us %.6g us\n", n, len(reps), m["rt_p99_us"])
}

// layerMetrics reports the median over traced repetitions of each
// layer figure. The counts are deterministic, so their median is every
// repetition's value.
func layerMetrics(m map[string]float64, plain, traced []rep) {
	med := func(f func(x rep) float64) float64 {
		vs := make([]float64, len(traced))
		for i, x := range traced {
			vs[i] = f(x)
		}
		return median(vs)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m["workload.prewarm_s"] = med(func(x rep) float64 { return secs(x.layers.prewarm) })
	m["dbms.new_s"] = med(func(x rep) float64 { return secs(x.layers.dbNew) })
	m["runner.run_s"] = med(func(x rep) float64 { return secs(x.layers.run) })
	m["sim.events"] = med(func(x rep) float64 { return float64(x.layers.events) })
	m["sim.ns_per_event"] = med(func(x rep) float64 { return float64(x.layers.run.Nanoseconds()) / float64(x.layers.events) })
	m["runner.alloc_b_per_txn"] = med(func(x rep) float64 { return ratio(x.layers.allocB, x.completed) })
	m["bufferpool.hit_ratio"] = med(func(x rep) float64 {
		return ratio(x.layers.poolHits, x.layers.poolHits+x.layers.poolMisses)
	})
	m["bufferpool.misses"] = med(func(x rep) float64 { return float64(x.layers.poolMisses) })
	m["lockmgr.waits"] = med(func(x rep) float64 { return float64(x.layers.lockWaits) })
	m["lockmgr.deadlocks"] = med(func(x rep) float64 { return float64(x.layers.deadlocks) })
	m["dbms.useful_ratio"] = med(func(x rep) float64 {
		return ratio(x.layers.committed, x.layers.committed+x.layers.aborted)
	})
	m["sim.events_per_txn"] = med(func(x rep) float64 { return ratio(x.layers.events, x.completed) })
	m["core.ext_wait_s"] = med(func(x rep) float64 { return x.layers.extWaitSum / float64(max(x.completed, 1)) })
	m["cluster.routed"] = med(func(x rep) float64 { return float64(x.layers.routed) })
	m["cluster.resubmitted"] = med(func(x rep) float64 { return float64(x.layers.resubmitted) })
	m["runner.snapshots"] = med(func(x rep) float64 { return float64(x.layers.snaps) })
	for _, k := range []string{"gate.admit_us_p50", "gate.admit_us_p99", "gate.release_us_p50",
		"gate.wait_us_mean", "http.overhead_us_p50", "handler.us_p50"} {
		m[k] = 0 // no live gate runs in a simulator workload
	}
	walls := func(reps []rep) float64 {
		vs := make([]float64, len(reps))
		for i, x := range reps {
			vs[i] = secs(x.wall)
		}
		return median(vs)
	}
	plainWall, tracedWall := walls(plain), walls(traced)
	m["trace.overhead_s"] = tracedWall - plainWall
	m["trace.overhead_frac"] = tracedWall/plainWall - 1
}

// collect runs a garbage collection before a simulated run, outside
// every timed region, so the run's timing and the peak RSS do not
// depend on when the previous run's garbage happens to be collected.
func collect() { runtime.GC() }

// cpuNow is the CPU time the process has used so far, all threads, user
// and system (CLOCK_PROCESS_CPUTIME_ID). The single-goroutine simulator
// workloads are timed with it rather than with the wall clock: on a
// dedicated host the two agree (plus the garbage collector's parallel
// work), but on a shared virtual machine the process clock leaves out
// the time the hypervisor ran other guests, which moves wall times by
// tens of per cent between runs. main checks the clock works before any
// workload runs.
func cpuNow() time.Duration {
	d, _ := cpuTime()
	return d
}

func cpuTime() (time.Duration, error) {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative number of bytes the heap has allocated.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
