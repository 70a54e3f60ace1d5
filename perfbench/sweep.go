package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"extsched/internal/dbfe"
	"extsched/internal/dbms"
	"extsched/internal/runner"
	"extsched/internal/sim"
	"extsched/internal/workload"
)

// The paper-sweep grid: an MPL ladder over Table 2 setups 1 and 3
// (CPU-bound, fully cached), 5 and 9 (IO-bound, buffer pool smaller
// than the database), 11 (CPU and IO) and 13 (lock-bound, with
// deadlocks), so every DBMS device model does work.
var (
	sweepSetups = []int{1, 3, 5, 9, 11, 13}
	sweepMPLs   = []int{2, 5, 10, 20}
)

// sweepClients is the paper's closed population (no think time).
const sweepClients = 100

// paperSweep runs the whole grid once per repetition, one point after
// the other on this goroutine.
func paperSweep(cfg config) (report, error) {
	var setups []workload.Setup
	for _, id := range sweepSetups {
		s, err := workload.SetupByID(id)
		if err != nil {
			return report{}, err
		}
		setups = append(setups, s)
	}
	seed := cfg.simSeed()
	return simLoop(cfg, "paper-sweep", func(tr *tracer) (rep, error) {
		var x rep
		start := time.Now()
		pass := tr.begin("sweep.pass", -1)
		for _, s := range setups {
			for _, mpl := range sweepMPLs {
				if err := sweepPoint(tr, pass, &x, s, mpl, seed); err != nil {
					return x, err
				}
			}
		}
		tr.end(pass)
		x.wall = time.Since(start)
		return x, nil
	})
}

// horizons are the experiments package's default run lengths
// (experiments.RunOpts): about 500 transactions of warm-up and 3000
// measured at the setup's rough saturation rate.
func horizons(s workload.Setup) (warmup, measure float64) {
	cpuD, ioD := s.Demands()
	rate := 1.0
	if perTxn := cpuD/float64(s.CPUs) + ioD/float64(s.Disks); perTxn > 0 {
		rate = 1 / perTxn
	}
	return math.Max(20, 500/rate), math.Max(100, 3000/rate)
}

// sweepPoint builds one point's stack the way experiments.RunClosed
// does (FIFO external queue, default DB options), runs it, and adds its
// results to x.
func sweepPoint(tr *tracer, parent int32, x *rep, s workload.Setup, mpl int, seed uint64) error {
	collect()
	pt := tr.begin(fmt.Sprintf("point.setup%d.mpl%d", s.ID, mpl), parent)
	defer tr.end(pt)
	var (
		eng = sim.NewEngine()
		db  *dbms.DB
		fe  *dbfe.Frontend
		gen *workload.Generator
		err error
	)
	cpu0 := cpuNow()
	dbNew := tr.call("dbms.New", pt, func() {
		db, err = dbms.New(eng, s.BuildConfig(workload.DBOptions{Seed: seed}))
	})
	if err != nil {
		return err
	}
	tr.call("dbfe.New", pt, func() { fe = dbfe.New(eng, db, mpl, nil) })
	tr.call("workload.NewGenerator", pt, func() { gen, err = workload.NewGenerator(s.Workload, seed) })
	if err != nil {
		return err
	}
	prewarm := tr.call("workload.Prewarm", pt, func() { workload.Prewarm(db, s.Workload, seed) })
	cpu1 := cpuNow()

	warmup, measure := horizons(s)
	spec := runner.Spec{
		Warmup: warmup,
		Phases: []runner.Phase{{Kind: runner.KindClosed, Clients: sweepClients, Duration: measure}},
	}
	var (
		out    runner.Outcome
		allocs uint64
	)
	if tr != nil {
		allocs = heapAllocs()
	}
	run := tr.call("runner.Run", pt, func() {
		out, err = runner.Run(context.Background(), runner.Stack{Eng: eng, DB: db, FE: fe, Gen: gen, Seed: seed}, spec)
	})
	cpu2 := cpuNow()
	if err != nil {
		return fmt.Errorf("setup %d mpl %d: %w", s.ID, mpl, err)
	}
	if tr != nil {
		allocs = heapAllocs() - allocs
	}

	t := out.Total
	st := db.Stats()
	x.setup += cpu1 - cpu0
	x.run += cpu2 - cpu1
	x.completed += t.Completed
	if t.Completed == 0 {
		return fmt.Errorf("setup %d mpl %d completed no transactions", s.ID, mpl)
	}
	x.costUS = append(x.costUS, float64((cpu2-cpu0).Microseconds())/float64(t.Completed))
	x.fps = append(x.fps, runFP{
		Name:       fmt.Sprintf("setup%d/mpl%d", s.ID, mpl),
		Completed:  t.Completed,
		Throughput: t.Throughput(),
		MeanRT:     t.All.Mean(),
		Restarts:   t.Restarts,
		LockWaits:  t.LockWaits,
		PoolHits:   st.PoolHits,
		PoolMisses: st.PoolMiss,
	})
	l := &x.layers
	l.dbNew += dbNew
	l.prewarm += prewarm
	l.run += run
	l.events += eng.Processed()
	l.allocB += allocs
	l.poolHits += st.PoolHits
	l.poolMisses += st.PoolMiss
	l.lockWaits += t.LockWaits
	l.deadlocks += t.Deadlocks
	l.committed += st.Committed
	l.aborted += st.Aborted
	l.extWaitSum += t.ExtWait.Mean() * float64(t.Completed)
	return nil
}
