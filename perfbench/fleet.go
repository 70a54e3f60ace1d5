package main

import (
	"context"
	"fmt"
	"time"

	"extsched"
	"extsched/internal/cluster"
	"extsched/internal/core"
	"extsched/internal/dbfe"
	"extsched/internal/dbms"
	"extsched/internal/lockmgr"
	"extsched/internal/runner"
	"extsched/internal/sim"
	"extsched/internal/workload"
	"extsched/metrics"
)

// The fleet-churn scenario: an eight-shard fleet of Table 2 setup 11
// (CPU and IO) behind power-of-two-choices dispatch, WFQ over the two
// priority classes on every shard, and resubmit recovery. A Poisson
// phase is followed by a burst phase with MTBF/MTTR shard churn, at an
// offered load near the fleet's capacity so the bursts build queues.
const (
	fleetSetupID     = 11
	fleetShards      = 8
	fleetMPL         = 5 * fleetShards
	fleetDispatch    = "jsq-d:2"
	fleetRetryBudget = 4
	fleetWarmup      = 30.0
	fleetPoisson     = 100.0
	fleetBurst       = 200.0
	fleetSnapshot    = 10.0
	fleetMTBF        = 60.0
	fleetMTTR        = 10.0
	// fleetLoad is the offered load as a share of the fleet's capacity
	// estimate fleetLambda uses.
	fleetLoad = 0.8
)

// fleetLambda is the offered arrival rate: fleetLoad times the fleet's
// bottleneck rate, shards / max(CPU demand per CPU, IO demand per disk).
func fleetLambda(s workload.Setup) float64 {
	cpuD, ioD := s.Demands()
	bottleneck := max(cpuD/float64(s.CPUs), ioD/float64(s.Disks))
	return fleetLoad * fleetShards / bottleneck
}

func fleetConfig(seed uint64) extsched.Config {
	return extsched.Config{
		SetupID:  fleetSetupID,
		MPL:      fleetMPL,
		Policy:   extsched.PolicyWFQ,
		Shards:   extsched.ShardSpec{Count: fleetShards, Dispatch: fleetDispatch},
		Recovery: &extsched.RecoverySpec{Mode: extsched.RecoveryResubmit, RetryBudget: fleetRetryBudget},
		Seed:     seed,
	}
}

func fleetScenario(lambda float64) extsched.Scenario {
	return extsched.Scenario{
		Name:           "fleet-churn",
		Warmup:         fleetWarmup,
		SampleInterval: fleetSnapshot,
		Phases: []extsched.Phase{
			{Name: "poisson", Kind: extsched.PhaseOpen, Duration: fleetPoisson, Lambda: lambda},
			{Name: "burst", Kind: extsched.PhaseBurst, Duration: fleetBurst, Lambda: lambda,
				Churn: &extsched.ChurnSpec{MTBF: fleetMTBF, MTTR: fleetMTTR}},
		},
	}
}

// fleetChurn times the scenario through System.Run. Each untraced
// repetition first runs a zero-length scenario on the same System,
// which builds the same eight-shard stack and stops; that time is the
// repetition's setup. A traced repetition builds the identical stack
// from the internal constructors, so each layer call gets a span, and
// must reproduce System.Run's fingerprint.
func fleetChurn(cfg config) (report, error) {
	seed := cfg.simSeed()
	sys, err := extsched.NewSystem(fleetConfig(seed))
	if err != nil {
		return report{}, err
	}
	setup, err := workload.SetupByID(fleetSetupID)
	if err != nil {
		return report{}, err
	}
	lambda := fleetLambda(setup)
	sc := fleetScenario(lambda)
	buildOnly := extsched.Scenario{Phases: []extsched.Phase{{Kind: extsched.PhaseOpen, Lambda: lambda}}}
	ctx := context.Background()
	return simLoop(cfg, "fleet-churn", func(tr *tracer) (rep, error) {
		if tr != nil {
			return fleetTraced(tr, setup, lambda, seed)
		}
		var x rep
		collect()
		cpu0 := cpuNow()
		if _, err := sys.Run(ctx, buildOnly); err != nil {
			return x, err
		}
		x.setup = cpuNow() - cpu0
		collect()
		start, cpu1 := time.Now(), cpuNow()
		res, err := sys.Run(ctx, sc)
		if err != nil {
			return x, err
		}
		cpu2 := cpuNow()
		x.wall = time.Since(start)
		x.run = cpu2 - cpu1 - x.setup // the run builds the same stack first
		t := res.Total
		routed := make([]uint64, len(res.Shards))
		for i, s := range res.Shards {
			routed[i] = s.Dispatched
		}
		x.completed = t.Completed
		x.costUS = []float64{float64((cpu2 - cpu1).Microseconds()) / float64(max(t.Completed, 1))}
		x.fps = []runFP{{
			Name: "fleet", Completed: t.Completed, Throughput: t.Throughput, MeanRT: t.MeanRT,
			Restarts: t.Restarts, LockWaits: t.LockWaits, Resubmitted: t.Resubmitted,
			Snapshots: len(res.Snapshots), Routed: routed,
		}}
		return x, nil
	})
}

// fleetTraced builds the stack System.Run builds for fleetConfig and
// runs the runner spec fleetScenario translates to.
func fleetTraced(tr *tracer, s workload.Setup, lambda float64, seed uint64) (rep, error) {
	var x rep
	collect()
	root := tr.begin("fleet.run", -1)
	defer tr.end(root)
	start, cpu0 := time.Now(), cpuNow()
	build := tr.begin("fleet.build", root)
	eng := sim.NewEngine()
	gen, err := workload.NewGenerator(s.Workload, seed)
	if err != nil {
		return x, err
	}
	weights := map[core.Class]float64{core.ClassHigh: 4, core.ClassLow: 1}
	shards := make([]cluster.Shard, fleetShards)
	dbs := make([]*dbms.DB, fleetShards)
	l := &x.layers
	for i := range shards {
		dbo := workload.DBOptions{LockPolicy: lockmgr.FIFO, Seed: cluster.ShardSeed(seed, i), CPUSpeed: 1}
		var db *dbms.DB
		l.dbNew += tr.call("dbms.New", build, func() { db, err = dbms.New(eng, s.BuildConfig(dbo)) })
		if err != nil {
			return x, err
		}
		policy, perr := core.NewPolicy(extsched.PolicyWFQ, weights)
		if perr != nil {
			return x, perr
		}
		var fe *dbfe.Frontend
		tr.call("dbfe.New", build, func() { fe = dbfe.New(eng, db, 0, policy) })
		l.prewarm += tr.call("workload.Prewarm", build, func() { workload.Prewarm(db, s.Workload, dbo.Seed) })
		shards[i] = cluster.Shard{FE: fe, DB: db, Speed: 1}
		dbs[i] = db
	}
	var disp *cluster.Dispatcher
	tr.call("cluster.NewDispatcher", build, func() {
		var dp cluster.Policy
		if dp, err = cluster.NewPolicySeeded(fleetDispatch, seed); err == nil {
			disp, err = cluster.NewDispatcher(dp, shards)
		}
	})
	if err != nil {
		return x, err
	}
	disp.SetMPL(fleetMPL)
	tr.end(build)
	cpu1 := cpuNow()
	x.setup = cpu1 - cpu0

	rp := cluster.RecoveryPolicy{Seed: seed, Resubmit: true, RetryBudget: fleetRetryBudget}
	st := runner.Stack{Eng: eng, Gen: gen, Seed: seed, Cluster: disp, Recovery: &rp}
	spec := runner.Spec{
		Warmup:         fleetWarmup,
		SampleInterval: fleetSnapshot,
		Phases: []runner.Phase{
			{Name: "poisson", Kind: runner.KindOpen, Duration: fleetPoisson, Lambda: lambda},
			{Name: "burst", Kind: runner.KindBurst, Duration: fleetBurst, Lambda: lambda,
				Churn: &runner.ChurnSpec{MTBF: fleetMTBF, MTTR: fleetMTTR}},
		},
	}
	var snaps int
	count := metrics.ObserverFunc(func(metrics.Snapshot) { snaps++ })
	var out runner.Outcome
	allocs := heapAllocs()
	l.run = tr.call("runner.Run", root, func() { out, err = runner.Run(context.Background(), st, spec, count) })
	if err != nil {
		return x, fmt.Errorf("fleet run: %w", err)
	}
	l.allocB = heapAllocs() - allocs
	cpu2 := cpuNow()
	x.run = cpu2 - cpu1
	x.wall = time.Since(start)

	t := out.Total
	routed := make([]uint64, len(out.Shards))
	for i, sr := range out.Shards {
		routed[i] = sr.Dispatched
		l.routed += sr.Dispatched
	}
	for _, db := range dbs {
		st := db.Stats()
		l.poolHits += st.PoolHits
		l.poolMisses += st.PoolMiss
		l.committed += st.Committed
		l.aborted += st.Aborted
	}
	l.events = eng.Processed()
	l.lockWaits = t.LockWaits
	l.deadlocks = t.Deadlocks
	l.extWaitSum = t.ExtWait.Mean() * float64(t.Completed)
	l.resubmitted = t.Resubmitted
	l.snaps = uint64(snaps)
	x.completed = t.Completed
	x.costUS = []float64{float64((cpu2 - cpu0).Microseconds()) / float64(max(t.Completed, 1))}
	x.fps = []runFP{{
		Name: "fleet", Completed: t.Completed, Throughput: t.Throughput(), MeanRT: t.All.Mean(),
		Restarts: t.Restarts, LockWaits: t.LockWaits, Resubmitted: t.Resubmitted,
		Snapshots: snaps, Routed: routed,
	}}
	return x, nil
}
