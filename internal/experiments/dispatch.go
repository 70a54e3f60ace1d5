package experiments

import (
	"fmt"

	"extsched/internal/cluster"
	"extsched/internal/dbfe"
	"extsched/internal/dbms"
	"extsched/internal/runner"
	"extsched/internal/sim"
	"extsched/internal/workload"
)

// buildShard assembles one simulated backend (DBMS + frontend) on eng
// at the given relative CPU speed, derived deterministically from the
// base seed and the shard index.
func buildShard(eng *sim.Engine, setup workload.Setup, dbo workload.DBOptions, speed float64, idx int, opts RunOpts) (cluster.Shard, error) {
	sdbo := dbo
	sdbo.CPUSpeed = speed
	sdbo.Seed = cluster.ShardSeed(dbo.Seed, idx)
	db, err := dbms.New(eng, setup.BuildConfig(sdbo))
	if err != nil {
		return cluster.Shard{}, err
	}
	fe := dbfe.New(eng, db, 0, nil)
	if opts.QueueLimit > 0 {
		fe.SetQueueLimit(opts.QueueLimit)
	}
	workload.Prewarm(db, setup.Workload, sdbo.Seed)
	return cluster.Shard{FE: fe, DB: db, Speed: speed}, nil
}

// buildShardedStack assembles a sharded dispatch stack: len(speeds)
// DBMS+frontend pairs at the given relative CPU speeds behind a
// dispatcher with the named policy. mplTotal is the cluster-wide MPL
// (split across shards). The stack carries a NewShard factory so
// autoscaled specs can grow the fleet past the built set; policies are
// seed-aware, so sampled dispatch ("jsq-d") reruns bit-identically
// while the plain policies ignore the seed entirely. With parallel,
// every shard's pair runs on its own member engine under a
// conservative parallel ensemble (sim.ParallelEngine), the dispatcher
// acting as the cross-engine message boundary: same seeds, same
// per-shard event streams — only the execution strategy differs.
func buildShardedStack(setup workload.Setup, speeds []float64, dispatch string, mplTotal int, dbo workload.DBOptions, opts RunOpts, parallel bool) (runner.Stack, error) {
	if dbo.Seed == 0 {
		dbo.Seed = opts.Seed
	}
	eng := sim.NewEngine()
	// newShard builds shard i on the one engine, or on a member engine
	// started at the coordinator's instant (mid-run shard_add events
	// build shards at t > 0).
	newShard := func(i int, speed float64) (cluster.Shard, error) {
		if !parallel {
			return buildShard(eng, setup, dbo, speed, i, opts)
		}
		meng := sim.NewEngine()
		meng.AdvanceTo(eng.Now())
		sh, err := buildShard(meng, setup, dbo, speed, i, opts)
		sh.Eng = meng
		return sh, err
	}
	shards := make([]cluster.Shard, len(speeds))
	for i, speed := range speeds {
		sh, err := newShard(i, speed)
		if err != nil {
			return runner.Stack{}, err
		}
		shards[i] = sh
	}
	policy, err := cluster.NewPolicySeeded(dispatch, opts.Seed)
	if err != nil {
		return runner.Stack{}, err
	}
	disp, err := cluster.NewDispatcher(policy, shards)
	if err != nil {
		return runner.Stack{}, err
	}
	disp.SetMPL(mplTotal)
	gen, err := workload.NewGenerator(setup.Workload, opts.Seed)
	if err != nil {
		return runner.Stack{}, err
	}
	st := runner.Stack{Eng: eng, Cluster: disp, Gen: gen, Seed: opts.Seed}
	st.NewShard = func(i int) (cluster.Shard, error) { return newShard(i, 1) }
	if parallel {
		engs := make([]*sim.Engine, len(shards))
		for i := range shards {
			engs[i] = shards[i].Eng
		}
		pe := sim.NewParallelEngine(eng, engs, disp)
		if err := disp.EnableParallel(pe); err != nil {
			pe.Close()
			return runner.Stack{}, err
		}
		st.Par = pe
	}
	return st, nil
}

// DispatchPoint is one measured sharded run.
type DispatchPoint struct {
	Policy     string
	Rho        float64 // offered load / aggregate capacity
	Lambda     float64
	Throughput float64
	MeanRT     float64
	P95        float64
	Shards     []runner.ShardReport
}

// RunDispatch measures one dispatch policy on a heterogeneous shard
// fleet under open Poisson arrivals at the given rate.
func RunDispatch(setup workload.Setup, speeds []float64, dispatch string, mplTotal int, lambda float64, opts RunOpts) (DispatchPoint, error) {
	st, err := buildShardedStack(setup, speeds, dispatch, mplTotal, workload.DBOptions{}, opts, false)
	if err != nil {
		return DispatchPoint{}, err
	}
	st.PercentileSamples = 4096
	out, err := runner.Run(opts.ctx(), st, runner.Spec{
		Warmup: opts.Warmup,
		Phases: []runner.Phase{{Kind: runner.KindOpen, Lambda: lambda, Duration: opts.Measure}},
	})
	if err != nil {
		return DispatchPoint{}, err
	}
	return DispatchPoint{
		Policy:     dispatch,
		Lambda:     lambda,
		Throughput: out.Total.Throughput(),
		MeanRT:     out.Total.All.Mean(),
		P95:        out.Total.P95,
		Shards:     out.Shards,
	}, nil
}

// DispatchFigure compares dispatch policies on a heterogeneous fleet:
// 4 shards of a Table 2 setup, one slowed to slowFactor of nominal
// speed, under an open arrival sweep from light load to near the
// fleet's aggregate capacity. Two series per policy: aggregate
// throughput and p95 response time against offered utilization.
//
// The paper's single-gate result says the MPL protects ONE backend;
// this figure is the multi-backend sequel: blind round-robin keeps
// feeding the slow shard its full share, so its queue — and the
// aggregate p95 — explodes long before capacity is reached, while
// queue- and work-aware policies (JSQ, least-work) route around the
// degradation and hold both throughput and tail latency.
func DispatchFigure(setupID int, slowFactor float64, opts RunOpts) (*Figure, error) {
	if slowFactor <= 0 || slowFactor > 1 {
		return nil, fmt.Errorf("experiments: slow factor %v outside (0,1]", slowFactor)
	}
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults(setup)
	// Per-shard nominal capacity from a no-MPL closed probe.
	base, err := RunClosed(setup, 0, nil, workload.DBOptions{}, opts)
	if err != nil {
		return nil, err
	}
	ref := base.Throughput()
	if ref <= 0 {
		return nil, fmt.Errorf("experiments: degenerate baseline throughput")
	}
	speeds := []float64{1, 1, 1, slowFactor}
	capacity := 0.0
	for _, s := range speeds {
		capacity += s * ref
	}
	const perShardMPL = 10
	mplTotal := perShardMPL * len(speeds)
	policies := []string{cluster.PolicyRoundRobin, cluster.PolicyJSQ, cluster.PolicyLeastWork}
	rhos := []float64{0.3, 0.5, 0.7, 0.85}
	type key struct{ p, r int }
	points, err := SweepContext(opts.ctx(), len(policies)*len(rhos), func(i int) (DispatchPoint, error) {
		k := key{p: i / len(rhos), r: i % len(rhos)}
		pt, err := RunDispatch(setup, speeds, policies[k.p], mplTotal, rhos[k.r]*capacity, opts)
		if err != nil {
			return DispatchPoint{}, err
		}
		pt.Rho = rhos[k.r]
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID: "dispatch",
		Title: fmt.Sprintf("Sharded dispatch: 4 shards of setup %d, one at %gx speed, MPL %d/shard",
			setupID, slowFactor, perShardMPL),
	}
	for pi, pol := range policies {
		tput := Series{Name: "tput " + pol}
		p95 := Series{Name: "p95 " + pol}
		for ri, rho := range rhos {
			pt := points[pi*len(rhos)+ri]
			tput.X = append(tput.X, rho)
			tput.Y = append(tput.Y, pt.Throughput)
			p95.X = append(p95.X, rho)
			p95.Y = append(p95.Y, pt.P95)
		}
		f.Series = append(f.Series, tput)
		f.Series = append(f.Series, p95)
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("per-shard nominal capacity %.2f tx/s; fleet capacity %.2f tx/s", ref, capacity),
		"x is offered load / fleet capacity; arrivals are open Poisson",
		"expect: rr feeds the slow shard its full share, so its p95 diverges at high rho; jsq/lwl route around it")
	return f, nil
}
