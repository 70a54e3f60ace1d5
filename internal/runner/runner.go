// Package runner executes phased workload scenarios on an assembled
// simulation stack. It is the engine behind the public Scenario API
// (extsched.System.Run) and the experiment harness's single-phase
// runs: one place that owns the measurement-window rule, phase
// sequencing, mid-phase control events, and interval snapshot
// streaming, so that every run in the repository measures the same way.
//
// # The windowing rule
//
// A run has exactly one measurement window: it opens when the warmup
// (if any) ends and closes when the last phase's duration elapses. A
// completion is counted if and only if it occurs inside the window —
// work still in flight when the window closes is excluded, and nothing
// that completes after the window (during a drain, say) can pollute
// the metrics. The seed code's RunOpen violated this (it drained the
// queue after the window and reported those completions against the
// window's length, biasing throughput up and response times long);
// TestWindowingRule in this package is the regression test for the
// unified rule.
package runner

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"extsched/internal/autoscale"
	"extsched/internal/cluster"
	"extsched/internal/controller"
	"extsched/internal/core"
	"extsched/internal/dbfe"
	"extsched/internal/dbms"
	"extsched/internal/dist"
	"extsched/internal/fairness"
	"extsched/internal/lockmgr"
	"extsched/internal/sim"
	"extsched/internal/stats"
	"extsched/internal/workload"
	"extsched/metrics"
)

// Stack is the assembled simulation the spec runs on. Exactly one of
// two shapes: single-backend (DB + FE set, Cluster nil) or sharded
// (Cluster set, DB/FE ignored). The runner owns the completion hooks
// (FE.OnComplete or Cluster.OnComplete) for the duration of the run.
type Stack struct {
	Eng *sim.Engine
	DB  *dbms.DB
	FE  *dbfe.Frontend
	// Cluster, when non-nil, replaces DB/FE with a sharded dispatch
	// fabric: drivers submit through it, control events address it, and
	// the runner reports per-shard slices next to the aggregates.
	Cluster *cluster.Dispatcher
	// Recovery configures what happens to the work a failed shard held
	// (sharded stacks only). Nil arms the zero policy — shed: the work
	// is lost and counted in Failed. The runner arms the cluster's
	// fault model unconditionally, so every sharded run reports
	// lifecycle state and availability.
	Recovery *cluster.RecoveryPolicy
	// NewShard, when non-nil, builds the shard a ShardAdd event joins
	// (index is the position the new shard will occupy). A ShardAdd
	// event without a factory is an error.
	NewShard func(index int) (cluster.Shard, error)
	Gen      *workload.Generator
	// PercentileSamples, when > 0, reservoir-samples response times
	// over the whole measurement window (deterministic given Seed).
	PercentileSamples int
	Seed              uint64
	// Fairness, when non-nil, attaches the N-tenant max-min fairness
	// controller, with class-keyed weights, for the whole run from the
	// moment the measurement window opens; Spec.Fairness, the
	// name-keyed form, replaces it. The capability table's fairness row
	// applies, and it excludes the other loops like an enable_fairness
	// event does.
	Fairness *fairness.Config
	// ClassNames labels tenant classes in per-class reports and
	// snapshots. Classes absent from the map fall back to the
	// frontend's tenant registry (core.Frontend.RegisterClass) on
	// unsharded stacks, then to the empty string. A spec's tenants
	// block replaces it.
	ClassNames map[core.Class]string
}

// Gate returns the control surface the MPL events and the feedback
// controller act on: the lone frontend, or the cluster dispatcher.
func (st Stack) Gate() controller.Gate {
	if st.Cluster != nil {
		return st.Cluster
	}
	return st.FE.Frontend
}

// sink returns what the workload drivers submit to.
func (st Stack) sink() workload.Sink {
	if st.Cluster != nil {
		return st.Cluster
	}
	return st.FE
}

// Report aggregates one window (the whole run, or one phase's slice of
// it). Accumulators expose mean/variance/C² etc.; counter fields are
// deltas over the window.
type Report struct {
	// Window is the report's length in simulated seconds.
	Window float64
	// Completed counts completions inside the window.
	Completed uint64
	// All accumulates response times (external queueing included);
	// Inside the time within the backend; ExtWait the external
	// queueing portion.
	All, Inside, ExtWait stats.Accumulator
	// Restarts counts abort/restart cycles; Dropped admission-control
	// rejections.
	Restarts, Dropped uint64
	// Shed counts deadline-missed rejections in the window; Classes
	// splits it per class.
	Shed uint64
	// Failed counts transactions terminally lost to shard failures in
	// the window; Resubmitted counts logical txns re-routed to a
	// survivor at least once; Retries counts resubmission events.
	Failed, Resubmitted, Retries uint64
	// CPUUtil / DiskUtil are device utilizations over the window.
	CPUUtil, DiskUtil float64
	// LockWaits / Deadlocks / Preemptions are lock-manager deltas.
	LockWaits, Deadlocks, Preemptions uint64
	// P50/P95/P99 are run-so-far response-time percentiles (zero
	// unless Stack.PercentileSamples was set).
	P50, P95, P99 float64
	// Classes is the per-tenant breakdown of the window, in ascending
	// class-ID order: one entry for every class that completed or shed
	// work. Per-class tails (the SLO signal) live here.
	Classes []ClassReport
	// classRT holds the window's per-class response-time accumulators
	// for CoreMetrics.
	classRT []core.ClassMetric
}

// Class returns class c's entry in Classes (the zero entry when the
// class neither completed nor shed work in the window).
func (r Report) Class(c core.Class) ClassReport {
	for _, cr := range r.Classes {
		if cr.Class == int(c) {
			return cr
		}
	}
	return ClassReport{Class: int(c)}
}

// ClassReport is one tenant class's slice of a Report window: the
// per-class vocabulary interval snapshots use. Name comes from
// Stack.ClassNames or the frontend's tenant registry; P95 is run-so-far
// (0 unless Stack.PercentileSamples is set — and only in whole-run
// reports, phase slices have no per-class reservoir).
type ClassReport = metrics.ClassStat

// Throughput returns completions per second over the window.
func (r Report) Throughput() float64 {
	if r.Window <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Window
}

// CoreMetrics converts the report to the core.Metrics vocabulary,
// per-class accumulators included.
func (r Report) CoreMetrics() core.Metrics {
	return core.Metrics{
		Completed: r.Completed,
		All:       r.All,
		Inside:    r.Inside,
		ExtWait:   r.ExtWait,
		Restarts:  r.Restarts,
		Classes:   r.classRT,
	}.WithWindow(r.Window)
}

// PhaseReport is one phase's slice of the measurement window.
type PhaseReport struct {
	Name string
	Kind Kind
	Report
}

// ShardReport is one shard's slice of the whole measurement window
// (sharded stacks only). Lock counters and device utilizations are the
// shard's own; Dispatched counts the arrivals the dispatcher routed to
// it inside the window.
type ShardReport struct {
	Shard int
	// Speed is the shard's relative CPU speed when the run ended.
	Speed      float64
	Dispatched uint64
	// State is the shard's lifecycle state when the run ended ("up",
	// "draining", "down").
	State string
	// Availability is the fraction of the measurement window the shard
	// was serving (a shard added mid-run accrues only from its join).
	Availability float64
	// P95 is the shard's own response-time 95th percentile, estimated
	// with a constant-memory P² quantile tracker (percentile mode only;
	// 0 otherwise). Unlike the aggregate reservoir percentiles this
	// costs O(1) memory per shard, which is what keeps per-shard
	// reporting affordable at thousand-shard fleets.
	P95 float64
	Report
}

// TuneReport summarizes a controller-enabled run.
type TuneReport struct {
	StartMPL   int
	FinalMPL   int
	Iterations int
	Converged  bool
}

// SLOReport summarizes an SLO-controlled run: the final class
// partition and the loop's activity.
type SLOReport struct {
	// Class is the protected class ("high" or "low"); SLOLimit /
	// OtherLimit the final slot partition (they sum to the final MPL).
	Class                string
	SLOLimit, OtherLimit int
	// Iterations counts completed SLO reactions; LastMeasured is the
	// last closed window's measured percentile in seconds (0 before any
	// window closed).
	Iterations   int
	LastMeasured float64
}

// FairnessReport summarizes a fairness-controlled run: the final
// tenant partition and the loop's activity.
type FairnessReport struct {
	// Limits is the final per-tenant slot partition, keyed by class ID
	// (it sums to the final MPL).
	Limits map[int]int
	// Iterations counts completed fairness reactions; Moves how many of
	// them actually moved a slot.
	Iterations, Moves int
}

// AutoscaleReport summarizes an autoscaled run's fleet trajectory.
type AutoscaleReport struct {
	// ScaleUps / ScaleDowns count controller actions over the run.
	ScaleUps, ScaleDowns uint64
	// FinalFleet is the Up shard count when the run ended; PeakFleet
	// and MinFleet the extremes observed at controller ticks.
	FinalFleet, PeakFleet, MinFleet int
	// ShardSeconds is the total shard-up time accrued inside the
	// measurement window (summed over all slots) — the capacity bill
	// an autoscaled fleet is trying to shrink versus a fixed one.
	ShardSeconds float64
}

// Outcome is a completed run.
type Outcome struct {
	Total  Report
	Phases []PhaseReport
	// Shards holds each shard's slice of the whole window (nil for
	// single-backend stacks).
	Shards []ShardReport
	// Tune is non-nil when an EnableController event fired.
	Tune *TuneReport
	// SLO is non-nil when the latency-SLO controller ran (a SetSLO
	// event).
	SLO *SLOReport
	// Fairness is non-nil when the max-min fairness controller ran
	// (Stack.Fairness or an EnableFairness event).
	Fairness *FairnessReport
	// Autoscale is non-nil when Spec.Autoscale armed the fleet
	// autoscaler.
	Autoscale *AutoscaleReport
	// FinalMPL is the MPL when the run ended (events or the controller
	// may have moved it from the configured value). For sharded stacks
	// it is the cluster-wide limit (sum of shard limits; 0 if any shard
	// is unlimited).
	FinalMPL int
}

// mark captures the cumulative counters a windowed delta is taken
// against.
type mark struct {
	t                       float64
	dropped, canceled, shed uint64
	// shedClass splits shed by tenant class (nil while nothing shed).
	shedClass              map[core.Class]uint64
	waits, dl, preempt     uint64
	failed, resub, retries uint64
	cpuBusy, diskBusy      float64 // utilization·time products
	// shards are the per-shard cumulative counters (sharded stacks).
	shards []shardMark
}

type shardMark struct {
	routed, dropped, canceled uint64
	waits, dl, preempt        uint64
	cpuBusy, diskBusy         float64
	upSec                     float64
}

func takeMark(st Stack) mark {
	m := mark{t: st.Eng.Now()}
	if c := st.Cluster; c != nil {
		m.dropped, m.canceled = c.Dropped(), c.Canceled()
		m.failed, m.resub, m.retries = c.Failed(), c.Resubmitted(), c.Retries()
		shards := c.Shards()
		routed := c.Routed()
		m.shards = make([]shardMark, len(shards))
		n := float64(len(shards))
		for i, sh := range shards {
			sm := &m.shards[i]
			sm.routed = routed[i]
			sm.upSec = c.UpSeconds(i)
			sm.dropped, sm.canceled = sh.FE.Dropped(), sh.FE.Canceled()
			m.shed += sh.FE.Shed()
			for c, n := range sh.FE.ShedClasses() {
				if m.shedClass == nil {
					m.shedClass = make(map[core.Class]uint64)
				}
				m.shedClass[c] += n
			}
			if sh.DB != nil {
				s := sh.DB.Stats()
				sm.waits, sm.dl, sm.preempt = s.Lock.Waits, s.Lock.Deadlocks, s.Lock.Preemptions
				m.waits += sm.waits
				m.dl += sm.dl
				m.preempt += sm.preempt
				sm.cpuBusy = sh.DB.CPUUtilization() * m.t
				sm.diskBusy = sh.DB.DiskUtilization() * m.t
				// The aggregate utilization is the fleet mean, so the
				// windowed delta math below holds shard-count-free.
				m.cpuBusy += sm.cpuBusy / n
				m.diskBusy += sm.diskBusy / n
			}
		}
		return m
	}
	m.dropped, m.canceled = st.FE.Dropped(), st.FE.Canceled()
	m.shed = st.FE.Shed()
	m.shedClass = st.FE.ShedClasses()
	if st.DB != nil {
		s := st.DB.Stats()
		m.waits, m.dl, m.preempt = s.Lock.Waits, s.Lock.Deadlocks, s.Lock.Preemptions
		m.cpuBusy = st.DB.CPUUtilization() * m.t
		m.diskBusy = st.DB.DiskUtilization() * m.t
	}
	return m
}

// utilDelta recovers the utilization over (a.t, b.t] from two
// cumulative-utilization marks.
func utilDelta(aBusy, bBusy, at, bt float64) float64 {
	if bt <= at {
		return 0
	}
	return (bBusy - aBusy) / (bt - at)
}

// className resolves a class's display name: the stack's explicit map
// first, then the unsharded frontend's tenant registry.
func className(st Stack, c core.Class) string {
	if n, ok := st.ClassNames[c]; ok {
		return n
	}
	if st.Cluster == nil && st.FE != nil {
		return st.FE.TenantName(c)
	}
	return ""
}

// classReports assembles the per-tenant breakdown of one window: every
// class that completed or shed work between the marks, ascending.
// resClass, when non-nil, supplies run-so-far per-class percentiles.
// Above limit classes (when limit > 0) the breakdown is elided.
func classReports(st Stack, m *core.Metrics, from, to mark, resClass map[core.Class]*stats.Reservoir, limit int) []ClassReport {
	return m.ClassStats(to.shedClass, from.shedClass, limit, func(cr *ClassReport) {
		c := core.Class(cr.Class)
		cr.Name = className(st, c)
		if rv := resClass[c]; rv != nil {
			cr.P95 = rv.Percentile(95)
		}
	})
}

// report assembles a Report from a window scope and its marks.
func report(st Stack, m *core.Metrics, from mark, res *stats.Reservoir, resClass map[core.Class]*stats.Reservoir) Report {
	to := takeMark(st)
	r := Report{
		Window:      to.t - from.t,
		Completed:   m.Completed,
		All:         m.All,
		Inside:      m.Inside,
		ExtWait:     m.ExtWait,
		Restarts:    m.Restarts,
		classRT:     slices.Clone(m.Classes),
		Dropped:     to.dropped - from.dropped,
		Shed:        to.shed - from.shed,
		LockWaits:   to.waits - from.waits,
		Deadlocks:   to.dl - from.dl,
		Preemptions: to.preempt - from.preempt,
		Failed:      to.failed - from.failed,
		Resubmitted: to.resub - from.resub,
		Retries:     to.retries - from.retries,
		CPUUtil:     utilDelta(from.cpuBusy, to.cpuBusy, from.t, to.t),
		DiskUtil:    utilDelta(from.diskBusy, to.diskBusy, from.t, to.t),
	}
	if res != nil {
		r.P50 = res.Percentile(50)
		r.P95 = res.Percentile(95)
		r.P99 = res.Percentile(99)
	}
	r.Classes = classReports(st, m, from, to, resClass, 0)
	return r
}

// buildDriver assembles the phase's traffic source.
func buildDriver(st Stack, ph Phase) (workload.Driver, error) {
	sink := st.sink()
	switch ph.Kind {
	case KindClosed:
		clients := ph.Clients
		if clients <= 0 {
			clients = 100
		}
		var think dist.Distribution
		if ph.ThinkTime > 0 {
			think = dist.NewExponential(ph.ThinkTime)
		}
		return workload.NewClosedDriver(st.Eng, sink, st.Gen, clients, think), nil
	case KindOpen:
		return workload.NewOpenDriver(st.Eng, sink, st.Gen, ph.Lambda, 0), nil
	case KindRamp:
		return workload.NewRampDriver(st.Eng, sink, st.Gen, ph.Lambda, ph.Lambda2, ph.Duration), nil
	case KindBurst:
		factor := ph.BurstFactor
		if factor == 0 {
			factor = 2
		}
		period := ph.BurstPeriod
		if period == 0 {
			period = 100 / ph.Lambda
		}
		return workload.NewBurstDriver(st.Eng, sink, st.Gen, ph.Lambda, factor, period), nil
	case KindDiurnal, KindFlash:
		return workload.NewShapedDriver(st.Eng, sink, st.Gen, workload.ShapedConfig{
			Base:          ph.Lambda,
			Amp:           ph.DiurnalAmp,
			Period:        ph.DiurnalPeriod,
			FlashFactor:   ph.FlashFactor,
			FlashAt:       ph.FlashAt,
			FlashDuration: ph.FlashDuration,
		}), nil
	case KindTrace:
		d, err := workload.NewTraceDriver(st.Eng, sink, ph.Trace)
		if err != nil {
			return nil, err
		}
		if ph.TraceSpeedup > 0 {
			d.Speedup = ph.TraceSpeedup
		}
		return d, nil
	default:
		return nil, fmt.Errorf("runner: unknown phase kind %q", ph.Kind)
	}
}

// run carries the mutable state of one execution.
type run struct {
	st   Stack
	spec Spec
	obs  []metrics.Observer

	measuring bool
	total     core.Metrics
	phase     core.Metrics
	window    core.Metrics
	res       *stats.Reservoir
	// resClass samples response times per tenant class (run-so-far) for
	// the per-class P95 report and snapshot fields. Lazily built, one
	// reservoir per distinct class seen, on its own seeded stream, so
	// res's draws do not depend on the class mix.
	resClass map[core.Class]*stats.Reservoir
	// classes resolves the spec's tenant names to class IDs.
	classes classIndex
	// shardTotal / winShard split the window per shard (sharded stacks
	// only): whole-window accumulators for Outcome.Shards, and
	// per-interval completion counts for Snapshot.Shards.
	shardTotal []core.Metrics
	winShard   []uint64
	// shardP95 tracks each shard's own response-time p95 with a P²
	// estimator — five markers per shard instead of a full reservoir,
	// which keeps per-shard percentiles O(1) memory at thousand-shard
	// fleets (percentile mode only, like res).
	shardP95 []*stats.P2

	totalMark, phaseMark, winMark mark
	nextSnap                      float64

	out  Outcome         // record fills in the loop reports
	loop controller.Slot // the attached MPL, SLO or fairness loop
	// stopOnConverge ends the run when the MPL controller converges;
	// sloClass names the SLO loop's protected class.
	stopOnConverge bool
	sloClass       string

	// asc is the armed fleet autoscaler; ascErr the first error a tick
	// hit (the tick runs inside an engine callback and cannot return
	// one, so it stops the engine and parks the error here for the
	// breakpoint loop to surface).
	asc                 *autoscale.Controller
	ascSpec             AutoscaleSpec
	ascErr              error
	peakFleet, minFleet int
	// snapUps / snapDowns are the action counters at the last emitted
	// snapshot (interval snapshots report deltas).
	snapUps, snapDowns uint64
}

// onComplete is the single completion observer for both stack shapes;
// shard is 0 for single-backend stacks.
func (r *run) onComplete(shard int, t *dbfe.Txn) {
	if r.measuring {
		r.total.Observe(&t.Item)
		r.phase.Observe(&t.Item)
		r.window.Observe(&t.Item)
		if r.shardTotal != nil {
			// A shard_add event can grow the fleet past the slices sized
			// at run start.
			for shard >= len(r.shardTotal) {
				r.shardTotal = append(r.shardTotal, core.Metrics{})
				r.winShard = append(r.winShard, 0)
			}
			r.shardTotal[shard].Observe(&t.Item)
			r.winShard[shard]++
			if r.shardP95 != nil {
				for shard >= len(r.shardP95) {
					r.shardP95 = append(r.shardP95, stats.NewP2(0.95))
				}
				r.shardP95[shard].Add(t.Item.ResponseTime())
			}
		}
		if r.res != nil {
			r.res.Add(t.Item.ResponseTime())
			r.classRes(t.Item.Class).Add(t.Item.ResponseTime())
		}
	}
	r.loop.Observe()
	// StopOnConverge must not wait for the next breakpoint (a scenario
	// without snapshot ticks may have none before the phase's end):
	// halt the engine as soon as the loop settles. The run loop sees
	// converged() and finishes the run there.
	if r.stopOnConverge && r.converged() {
		r.st.Eng.Stop()
	}
}

// converged reports whether the attached loop is the MPL controller
// and has settled.
func (r *run) converged() bool {
	c, ok := r.loop.Loop().(*controller.Controller)
	return ok && c.Converged()
}

// classRes returns (building lazily) the run-so-far response-time
// reservoir for tenant class c. Each class samples on its own seeded
// stream, so reservoirs are deterministic regardless of the order
// classes first appear in.
func (r *run) classRes(c core.Class) *stats.Reservoir {
	rv := r.resClass[c]
	if rv == nil {
		if r.resClass == nil {
			r.resClass = make(map[core.Class]*stats.Reservoir)
		}
		seed := r.st.Seed
		if seed == 0 {
			seed = 1
		}
		rv = stats.NewReservoir(r.st.PercentileSamples, sim.NewRNG(seed, 601+2*(uint64(int64(c))&0xffff)))
		r.resClass[c] = rv
	}
	return rv
}

// Run executes spec on st. Before anything runs it validates the spec
// and consults the capability table against the stack's shape, so an
// unsupported combination fails before the first event. Observers
// receive one windowed Snapshot per SampleInterval, synchronously on
// the simulation goroutine (they may inspect or adjust the stack from
// the callback). ctx is checked at every internal breakpoint — phase
// boundaries, events, snapshot ticks — and a canceled run returns
// ctx.Err() with the partial Outcome discarded.
func Run(ctx context.Context, st Stack, spec Spec, obs ...metrics.Observer) (Outcome, error) {
	if err := spec.Validate(); err != nil {
		return Outcome{}, err
	}
	shards := 0
	if st.Cluster != nil {
		shards = st.Cluster.NumShards()
	}
	if err := spec.CheckStack(shards); err != nil {
		return Outcome{}, err
	}
	spec, err := spec.withTraces()
	if err != nil {
		return Outcome{}, err
	}
	classes, _ := spec.classIndex() // vetted by Validate above
	if len(spec.Tenants) > 0 {
		if err := applyTenants(&st, spec.Tenants); err != nil {
			return Outcome{}, err
		}
	}
	if fs := spec.Fairness; fs != nil {
		cfg, err := spec.fairnessConfig(classes, *fs)
		if err != nil {
			return Outcome{}, err
		}
		st.Fairness = &cfg
	}
	if st.Fairness != nil {
		if err := FeatureFairness.Check("Stack.Fairness", shards); err != nil {
			return Outcome{}, err
		}
	}
	r := &run{st: st, spec: spec, obs: obs, classes: classes}
	if st.PercentileSamples > 0 {
		seed := st.Seed
		if seed == 0 {
			seed = 1
		}
		r.res = stats.NewReservoir(st.PercentileSamples, sim.NewRNG(seed, 31))
	}
	if c := st.Cluster; c != nil {
		// Arm the fault model unconditionally: lifecycle events and the
		// churn generator need it, and an armed-but-unfailed fleet
		// behaves identically to an unarmed one (every shard Up, the
		// filtered dispatch view is the identity).
		rp := cluster.RecoveryPolicy{}
		if st.Recovery != nil {
			rp = *st.Recovery
		}
		if rp.Seed == 0 {
			rp.Seed = st.Seed
		}
		if err := c.SetRecovery(st.Eng, rp); err != nil {
			return Outcome{}, err
		}
		r.shardTotal = make([]core.Metrics, c.NumShards())
		r.winShard = make([]uint64, c.NumShards())
		if st.PercentileSamples > 0 {
			r.shardP95 = make([]*stats.P2, c.NumShards())
			for i := range r.shardP95 {
				r.shardP95[i] = stats.NewP2(0.95)
			}
		}
		c.OnComplete = r.onComplete
	} else {
		st.FE.OnComplete = func(t *dbfe.Txn) { r.onComplete(0, t) }
	}
	out := &r.out
	for i, ph := range spec.Phases {
		driver, err := buildDriver(st, ph)
		if err != nil {
			return Outcome{}, err
		}
		driver.Start()
		if i == 0 {
			// The autoscaler is live from the first arrival, warmup
			// included: a fleet frozen at its starting size while warmup
			// load climbs would open the measurement window buried under
			// a backlog the controller was never allowed to absorb.
			if spec.Autoscale != nil {
				if err := r.armAutoscale(*spec.Autoscale); err != nil {
					return Outcome{}, err
				}
			}
			if spec.Warmup > 0 {
				st.Eng.Run(st.Eng.Now() + spec.Warmup)
				if err := ctx.Err(); err != nil {
					return Outcome{}, err
				}
				if r.ascErr != nil {
					return Outcome{}, r.ascErr
				}
			}
			r.beginMeasurement()
			if st.Fairness != nil {
				if err := r.attachFairness(*st.Fairness); err != nil {
					return Outcome{}, err
				}
			}
		}
		stopped, err := r.runPhase(ctx, ph)
		driver.Stop()
		if err != nil {
			return Outcome{}, err
		}
		out.Phases = append(out.Phases, PhaseReport{
			Name:   ph.label(),
			Kind:   ph.Kind,
			Report: report(st, &r.phase, r.phaseMark, nil, nil),
		})
		r.phase.Reset()
		r.phaseMark = takeMark(st)
		if stopped {
			break
		}
	}
	r.measuring = false
	out.Total = report(st, &r.total, r.totalMark, r.res, r.resClass)
	out.Shards = r.shardReports()
	out.FinalMPL = st.Gate().MPL()
	r.record(r.loop.Loop())
	if r.asc != nil {
		out.Autoscale = r.autoscaleReport()
	}
	return *out, nil
}

// The kinds of loop run.loop holds, named after the events that detach
// them (disable_controller, disable_slo, disable_fairness).
const (
	loopController = "controller"
	loopSLO        = "slo"
	loopFairness   = "fairness"
)

// record writes loop's state into the Outcome's report for its kind:
// Tune, SLO or Fairness. It runs when an event detaches a loop and, for
// the loop still attached, when the run ends; a nil loop records
// nothing.
func (r *run) record(loop controller.Loop) {
	switch l := loop.(type) {
	case *controller.Controller:
		// Tune was opened, with StartMPL, when the first controller attached.
		*r.out.Tune = TuneReport{StartMPL: r.out.Tune.StartMPL, FinalMPL: r.st.Gate().MPL(),
			Iterations: l.Iterations(), Converged: l.Converged()}
	case *controller.SLOController:
		rep := &SLOReport{Class: r.sloClass, Iterations: l.Iterations()}
		rep.SLOLimit, rep.OtherLimit = l.Limits()
		if d, ok := l.Last(); ok {
			rep.LastMeasured = d.Measured
		}
		r.out.SLO = rep
	case *fairness.Controller:
		rep := &FairnessReport{Limits: map[int]int{}, Iterations: l.Iterations(), Moves: l.Moves()}
		for c, n := range l.Limits() {
			rep.Limits[int(c)] = n
		}
		r.out.Fairness = rep
	}
}

// applyTenants installs a tenants block on the fresh stack: every
// frontend's registry gets the names, weights and SLO targets (so live
// stats and reports carry tenant names), the WFQ policy — when the
// queue policy is WFQ — is reweighted to the tenants' declared weights,
// and the generator's arrival stream is split by the tenants' shares,
// replacing the stack's high-priority tagging.
func applyTenants(st *Stack, tenants []TenantSpec) error {
	names := make(map[core.Class]string, len(tenants))
	weights := make(map[core.Class]float64, len(tenants))
	mix := make([]workload.TenantMix, len(tenants))
	for i, t := range tenants {
		w := t.weight()
		if st.Cluster != nil {
			for _, sh := range st.Cluster.Shards() {
				sh.FE.RegisterClass(t.Name, w, t.SLOTarget)
			}
		} else {
			st.FE.RegisterClass(t.Name, w, t.SLOTarget)
		}
		names[core.Class(i)] = t.Name
		weights[core.Class(i)] = w
		mix[i] = workload.TenantMix{
			Class:    lockmgr.Class(i),
			Share:    t.Share,
			SizeMean: t.SizeMean,
			SizeC2:   t.SizeC2,
		}
	}
	if st.Cluster != nil {
		st.Cluster.SetWFQWeights(weights)
	} else {
		st.FE.SetWFQWeights(weights)
	}
	st.ClassNames = names
	return st.Gen.SetMix(mix)
}

// armAutoscale builds the fleet controller and starts its tick timer
// at the engine's current time (the measurement-window open).
func (r *run) armAutoscale(spec AutoscaleSpec) error {
	c := r.st.Cluster
	if spec.Max > c.NumShards() && r.st.NewShard == nil {
		return fmt.Errorf("runner: autoscale max %d exceeds the %d built shards and the stack has no NewShard factory", spec.Max, c.NumShards())
	}
	asc, err := autoscale.New(spec.config())
	if err != nil {
		return err
	}
	r.asc = asc
	r.ascSpec = spec
	up := c.UpCount()
	r.peakFleet, r.minFleet = up, up
	interval := asc.Config().Interval
	var tick func()
	tick = func() {
		r.autoscaleTick()
		r.st.Eng.After(interval, tick)
	}
	r.st.Eng.After(interval, tick)
	return nil
}

// autoscaleTick is one controller observation, run inside an engine
// callback: read the fleet signal, apply the decision, track extremes.
func (r *run) autoscaleTick() {
	if r.ascErr != nil {
		return
	}
	c := r.st.Cluster
	up := c.UpCount()
	sig := 0.0
	if up > 0 {
		sig = float64(c.Inside()+c.QueueLen()) / float64(up)
	}
	switch r.asc.Observe(r.st.Eng.Now(), up, sig) {
	case autoscale.ScaleUp:
		r.ascErr = r.scaleUp()
	case autoscale.ScaleDown:
		r.ascErr = r.scaleDown()
	}
	if r.ascErr != nil {
		// Surface the failure at the next breakpoint instead of ticking
		// a broken fleet to the phase end.
		r.st.Eng.Stop()
		return
	}
	if up := c.UpCount(); up > r.peakFleet {
		r.peakFleet = up
	} else if up < r.minFleet {
		r.minFleet = up
	}
}

// scaleUp adds one serving shard: reuse a parked (Draining or Down)
// slot first — recovering one is instant capacity and keeps the slot
// count bounded over long oscillations — and only build a fresh shard
// through the factory when every slot is Up.
func (r *run) scaleUp() error {
	c := r.st.Cluster
	n := c.NumShards()
	for i := 0; i < n; i++ {
		if c.State(i) != cluster.ShardUp {
			if err := c.RecoverShard(i); err != nil {
				return err
			}
			return r.retargetMPL()
		}
	}
	if r.st.NewShard == nil {
		// Every built slot is serving and there is nothing to grow
		// with; armAutoscale only allows this when Max <= built shards,
		// so the controller is simply clamped here.
		return nil
	}
	sh, err := r.st.NewShard(n)
	if err != nil {
		return err
	}
	if _, err := c.AddShard(sh); err != nil {
		return err
	}
	return r.retargetMPL()
}

// scaleDown drains the highest-index Up shard (the slot a later
// scale-up is least likely to reuse first, keeping low indexes warm).
func (r *run) scaleDown() error {
	c := r.st.Cluster
	for i := c.NumShards() - 1; i >= 0; i-- {
		if c.State(i) == cluster.ShardUp {
			if err := c.RemoveShard(i); err != nil {
				return err
			}
			return r.retargetMPL()
		}
	}
	return nil
}

// retargetMPL re-splits the cluster MPL after a fleet change when the
// spec scales admitted concurrency with capacity.
func (r *run) retargetMPL() error {
	if r.ascSpec.MPLPerShard <= 0 {
		return nil
	}
	r.st.Cluster.SetMPL(r.ascSpec.MPLPerShard * r.st.Cluster.UpCount())
	return nil
}

// autoscaleReport assembles the run's fleet trajectory summary.
func (r *run) autoscaleReport() *AutoscaleReport {
	rep := &AutoscaleReport{
		ScaleUps:   r.asc.ScaleUps(),
		ScaleDowns: r.asc.ScaleDowns(),
		FinalFleet: r.st.Cluster.UpCount(),
		PeakFleet:  r.peakFleet,
		MinFleet:   r.minFleet,
	}
	to := takeMark(r.st)
	for i, t := range to.shards {
		var f shardMark
		if i < len(r.totalMark.shards) {
			f = r.totalMark.shards[i]
		}
		rep.ShardSeconds += t.upSec - f.upSec
	}
	return rep
}

// attachSLO builds and wires the latency-SLO controller on the lone
// frontend (the capability table keeps it off sharded stacks), which
// gets percentile sampling enabled on the spot if the configuration
// did not already.
func (r *run) attachSLO(spec SLOSpec) error {
	return r.loop.Attach(loopSLO, func() (controller.Loop, error) {
		class, err := spec.protected()
		if err != nil {
			return nil, err
		}
		fe := r.st.FE.Frontend
		if !fe.PercentilesEnabled() {
			fe.EnablePercentiles(sloSampleCapacity, cmp.Or(r.st.Seed, 1))
		}
		slo, err := controller.NewSLO(r.st.Eng.Clock(), fe, controller.SLOConfig{
			Target: controller.SLOTarget{
				Class:      class,
				Percentile: spec.Percentile,
				Target:     spec.Target,
			},
			MinObservations: spec.MinObservations,
			Margin:          spec.Margin,
		})
		if err != nil {
			return nil, err
		}
		r.sloClass = cmp.Or(spec.Class, "high")
		return slo, nil
	})
}

// sloSampleCapacity is the reservoir size attachSLO enables when the
// stack has no percentile sampling of its own: large enough for a
// stable p95 over a 50-completion window, small enough to be free.
const sloSampleCapacity = 2048

// attachFairness builds and wires the N-tenant max-min fairness
// controller on the lone frontend (the capability table keeps it off
// sharded stacks).
func (r *run) attachFairness(cfg fairness.Config) error {
	return r.loop.Attach(loopFairness, func() (controller.Loop, error) {
		return fairness.New(r.st.FE.Frontend, cfg)
	})
}

// beginMeasurement opens the measurement window at the engine's
// current time.
func (r *run) beginMeasurement() {
	if c := r.st.Cluster; c != nil {
		c.ResetMetrics()
		for _, sh := range c.Shards() {
			if sh.DB != nil {
				sh.DB.Pool().ResetStats()
			}
		}
	} else {
		r.st.FE.ResetMetrics()
		if r.st.DB != nil {
			r.st.DB.Pool().ResetStats()
		}
	}
	r.measuring = true
	m := takeMark(r.st)
	r.totalMark, r.phaseMark, r.winMark = m, m, m
	r.nextSnap = m.t + r.spec.SampleInterval
}

// churnEvents precomputes one phase's failure schedule: per shard, an
// alternating sequence of exponential up/down sojourns truncated at
// the phase end, emitted as guarded fail/recover events. The schedule
// is a pure function of (spec, shard count, duration, seed), so churn
// phases rerun bit-identically.
func churnEvents(ch ChurnSpec, shards int, dur float64, stackSeed uint64) []Event {
	seed := ch.Seed
	if seed == 0 {
		seed = stackSeed
		if seed == 0 {
			seed = 1
		}
	}
	var out []Event
	for i := 0; i < shards; i++ {
		rng := sim.NewRNG(seed, uint64(211+i))
		exp := func(mean float64) float64 {
			return -mean * math.Log(1-rng.Float64())
		}
		t := exp(ch.MTBF)
		for t < dur {
			idx := i
			out = append(out, Event{At: t, ShardFail: &idx, churn: true})
			t += exp(ch.MTTR)
			if t >= dur {
				// Never leave a churned shard down past its phase: the
				// generator owns only this phase's window.
				t = dur
			}
			out = append(out, Event{At: t, ShardRecover: &idx, churn: true})
			t += exp(ch.MTBF)
		}
	}
	return out
}

// runPhase advances the engine through one phase's measured duration,
// pausing at event and snapshot breakpoints. It reports whether the
// run should stop early (controller convergence).
func (r *run) runPhase(ctx context.Context, ph Phase) (stopEarly bool, err error) {
	eng := r.st.Eng
	phaseStart := eng.Now()
	phaseEnd := phaseStart + ph.Duration
	// Events fire in offset order, clamped into the phase.
	evs := append([]Event(nil), ph.Events...)
	if ph.Churn != nil {
		evs = append(evs, churnEvents(*ph.Churn, r.st.Cluster.NumShards(), ph.Duration, r.st.Seed)...)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	ei := 0
	for {
		t := phaseEnd
		if ei < len(evs) {
			if et := min(phaseStart+evs[ei].At, phaseEnd); et < t {
				t = et
			}
		}
		if r.spec.SampleInterval > 0 && r.nextSnap < t {
			t = r.nextSnap
		}
		eng.Run(t)
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if r.ascErr != nil {
			return false, r.ascErr
		}
		// Apply everything due at this breakpoint: events first (a
		// snapshot at the same instant observes their effect).
		for ei < len(evs) && min(phaseStart+evs[ei].At, phaseEnd) <= t {
			if err := r.applyEvent(evs[ei]); err != nil {
				return false, err
			}
			ei++
		}
		if r.spec.SampleInterval > 0 && r.nextSnap <= t {
			r.emitSnapshot(ph)
			r.nextSnap += r.spec.SampleInterval
		}
		if r.stopOnConverge && r.converged() {
			return true, nil
		}
		if t >= phaseEnd {
			return false, nil
		}
	}
}

// applyEvent performs one control action at the engine's current time.
// Run has already consulted the capability table, so every action here
// suits the stack's shape, and Validate has vetted every tenant name.
func (r *run) applyEvent(ev Event) error {
	st, c := r.st, r.st.Cluster
	gate := st.Gate()
	if ev.SetMPL != nil {
		gate.SetMPL(*ev.SetMPL)
	}
	if len(ev.SetWeights) > 0 {
		w, err := byClass(r.classes, ev.SetWeights)
		if err != nil {
			return err
		}
		if c != nil {
			c.SetWFQWeights(w)
		} else {
			st.FE.SetWFQWeights(w)
		}
	}
	limits, deadlines, err := r.classMaps(ev)
	if err != nil {
		return err
	}
	if limits != nil {
		st.FE.SetClassLimits(limits)
	}
	for cl, d := range deadlines {
		if c != nil {
			c.SetAdmitDeadline(cl, d)
		} else {
			st.FE.SetAdmitDeadline(cl, d)
		}
	}
	if ss := ev.SetShardSpeed; ss != nil {
		if err := c.SetSpeed(ss.Shard, ss.Speed); err != nil {
			return err
		}
	}
	if ev.SetDispatch != "" {
		// Seed the policy from the stack so sampled dispatch (jsq-d,
		// lwl-d) reruns bit-identically.
		p, err := cluster.NewPolicySeeded(ev.SetDispatch, st.Seed)
		if err != nil {
			return err
		}
		c.SetPolicy(p)
	}
	if ev.ShardAdd {
		if st.NewShard == nil {
			return fmt.Errorf("runner: ShardAdd event needs a Stack.NewShard factory")
		}
		sh, err := st.NewShard(c.NumShards())
		if err != nil {
			return err
		}
		if _, err := c.AddShard(sh); err != nil {
			return err
		}
	}
	if ev.ShardFail != nil {
		skip := false
		if ev.churn {
			// Generator-synthesized failures never take the last Up
			// shard down; an explicit scenario event may.
			skip = c.UpCount() <= 1 && c.State(*ev.ShardFail) == cluster.ShardUp
		}
		if !skip {
			if err := c.FailShard(*ev.ShardFail); err != nil {
				return err
			}
		}
	}
	if ev.ShardRecover != nil {
		if err := c.RecoverShard(*ev.ShardRecover); err != nil {
			return err
		}
	}
	if ev.ShardRemove != nil {
		if err := c.RemoveShard(*ev.ShardRemove); err != nil {
			return err
		}
	}
	// The disables run before the enables, so one event can hand
	// control from one loop to another ({disable_controller, set_slo}
	// and {disable_slo, enable_controller} both work); CheckStack
	// replays them in this order. A detached loop's outcome is recorded
	// so the run's report survives the disable.
	if ev.DisableSLO {
		r.record(r.loop.Detach(loopSLO))
	}
	if ev.DisableFairness {
		if l := r.loop.Detach(loopFairness); l != nil {
			r.record(l)
			// The partition stays where the loop left it, but a strict
			// cap relaxes: without a controller rebalancing it, a hard
			// cap could idle capacity forever.
			st.FE.SetStrictPartition(false)
		}
	}
	if ev.DisableController {
		r.record(r.loop.Detach(loopController))
		r.stopOnConverge = false
	}
	if ev.SetSLO != nil {
		if err := r.attachSLO(*ev.SetSLO); err != nil {
			return err
		}
	}
	if fs := ev.EnableFairness; fs != nil {
		cfg, err := r.spec.fairnessConfig(r.classes, *fs)
		if err != nil {
			return err
		}
		if err := r.attachFairness(cfg); err != nil {
			return err
		}
	}
	if cs := ev.EnableController; cs != nil {
		err := r.loop.Attach(loopController, func() (controller.Loop, error) {
			return controller.New(st.Eng.Clock(), gate, controller.Config{
				Targets: controller.Targets{
					MaxThroughputLoss: cs.MaxThroughputLoss,
					MaxRTIncrease:     cs.MaxRTIncrease,
				},
				Reference: controller.Reference{
					MaxThroughput: cs.ReferenceThroughput,
					OptimalRT:     cs.ReferenceRT,
				},
				MinObservations: cs.MinObservations,
				HoldWindows:     cs.HoldWindows,
			})
		})
		if err != nil {
			return err
		}
		r.stopOnConverge = cs.StopOnConverge
		if r.out.Tune == nil {
			r.out.Tune = &TuneReport{StartMPL: gate.MPL()}
		}
	}
	return nil
}

// classMaps resolves an event's partition and deadline actions to
// class-keyed maps, so each has one execution path: set_tenant_limits
// and set_tenant_deadlines by tenant name, and their two-class
// spellings set_class_limits and set_admit_deadline by the high/low
// class IDs (which win where an event carries both spellings). A nil
// limits map leaves the partition alone; an empty one clears it.
func (r *run) classMaps(ev Event) (limits map[core.Class]int, deadlines map[core.Class]float64, err error) {
	if tl := ev.SetTenantLimits; tl != nil {
		if limits, err = byClass(r.classes, *tl); err != nil {
			return nil, nil, err
		}
	}
	if cl := ev.SetClassLimits; cl != nil {
		limits = cl.byClass()
	}
	if len(ev.SetTenantDeadlines) > 0 {
		if deadlines, err = byClass(r.classes, ev.SetTenantDeadlines); err != nil {
			return nil, nil, err
		}
	}
	if ad := ev.SetAdmitDeadline; ad != nil {
		if deadlines == nil {
			deadlines = ad.byClass()
		} else {
			maps.Copy(deadlines, ad.byClass())
		}
	}
	return limits, deadlines, nil
}

// shardReports assembles each shard's slice of the whole measurement
// window (nil for single-backend stacks).
func (r *run) shardReports() []ShardReport {
	c := r.st.Cluster
	if c == nil {
		return nil
	}
	to := takeMark(r.st)
	from := r.totalMark
	out := make([]ShardReport, c.NumShards())
	for i, sh := range c.Shards() {
		sr := ShardReport{Shard: i, Speed: sh.Speed, State: c.State(i).String()}
		sr.Report = Report{Window: to.t - from.t}
		if i < len(r.shardTotal) {
			m := &r.shardTotal[i]
			sr.Completed = m.Completed
			sr.All = m.All
			sr.Inside = m.Inside
			sr.ExtWait = m.ExtWait
			sr.Restarts = m.Restarts
		}
		if i < len(r.shardP95) && r.shardP95[i].Count() > 0 {
			sr.P95 = r.shardP95[i].Quantile()
		}
		// A shard added mid-run is missing from the opening mark; its
		// cumulative counters started at zero when it joined, so the
		// whole-window delta is just the closing value.
		var f shardMark
		if i < len(from.shards) {
			f = from.shards[i]
		}
		if i < len(to.shards) {
			t := to.shards[i]
			sr.Dispatched = t.routed - f.routed
			sr.Dropped = t.dropped - f.dropped
			sr.LockWaits = t.waits - f.waits
			sr.Deadlocks = t.dl - f.dl
			sr.Preemptions = t.preempt - f.preempt
			sr.CPUUtil = utilDelta(f.cpuBusy, t.cpuBusy, from.t, to.t)
			sr.DiskUtil = utilDelta(f.diskBusy, t.diskBusy, from.t, to.t)
			if w := to.t - from.t; w > 0 {
				sr.Availability = (t.upSec - f.upSec) / w
			}
		}
		out[i] = sr
	}
	return out
}

// maxSnapshotShards bounds the per-member slice an interval snapshot
// carries: above this fleet size a collector holding the run's time
// series would grow O(N) per interval, so snapshots keep only the
// aggregate (and fleet-size) fields. Whole-run per-shard reports in
// the Outcome are unaffected — they are emitted once, not per tick.
const maxSnapshotShards = 128

// shardStats assembles the per-shard slice of an interval snapshot and
// opens the shards' next completion window.
func (r *run) shardStats(to mark) []metrics.ShardStat {
	c := r.st.Cluster
	if c == nil {
		return nil
	}
	if c.NumShards() > maxSnapshotShards {
		// Elide the slice but still close the shards' completion
		// window, or the first small-fleet snapshot after a shrink
		// would double-count.
		for i := range r.winShard {
			r.winShard[i] = 0
		}
		return nil
	}
	out := make([]metrics.ShardStat, c.NumShards())
	for i, sh := range c.Shards() {
		ss := metrics.ShardStat{
			Shard:    i,
			Speed:    sh.Speed,
			Limit:    sh.FE.MPL(),
			Inflight: sh.FE.Inside(),
			Queued:   sh.FE.QueueLen(),
			State:    c.State(i).String(),
		}
		if i < len(r.winShard) {
			ss.Completed = r.winShard[i]
			r.winShard[i] = 0
		}
		// As in shardReports, a shard added mid-window is simply absent
		// from the opening mark: its counters delta from zero.
		var f shardMark
		if i < len(r.winMark.shards) {
			f = r.winMark.shards[i]
		}
		if i < len(to.shards) {
			t := to.shards[i]
			ss.Dispatched = t.routed - f.routed
			ss.CPUUtil = utilDelta(f.cpuBusy, t.cpuBusy, r.winMark.t, to.t)
			ss.DiskUtil = utilDelta(f.diskBusy, t.diskBusy, r.winMark.t, to.t)
			if w := to.t - r.winMark.t; w > 0 {
				ss.Availability = (t.upSec - f.upSec) / w
			}
		}
		out[i] = ss
	}
	return out
}

// maxSnapshotClasses bounds the per-class slice an interval snapshot
// carries, like maxSnapshotShards does for shards: above this tenant
// count a collector holding the run's time series would grow O(N) per
// interval, so snapshots keep only the aggregate fields. Whole-run
// per-class reports in the Outcome are unaffected — they are emitted
// once, not per tick.
const maxSnapshotClasses = 64

// emitSnapshot sends the current interval window to every observer and
// opens the next one.
func (r *run) emitSnapshot(ph Phase) {
	st := r.st
	gate := st.Gate()
	to := takeMark(st)
	w := &r.window
	s := metrics.Snapshot{
		Time:         to.t,
		Window:       to.t - r.winMark.t,
		Phase:        ph.label(),
		Limit:        gate.MPL(),
		Inflight:     gate.Inside(),
		Queued:       gate.QueueLen(),
		Completed:    w.Completed,
		MeanResponse: w.All.Mean(),
		MeanWait:     w.ExtWait.Mean(),
		MeanInside:   w.Inside.Mean(),
		Restarts:     w.Restarts,
		Dropped:      to.dropped - r.winMark.dropped,
		Canceled:     to.canceled - r.winMark.canceled,
		Shed:         to.shed - r.winMark.shed,
		Failed:       to.failed - r.winMark.failed,
		Resubmitted:  to.resub - r.winMark.resub,
		Retries:      to.retries - r.winMark.retries,
		CPUUtil:      utilDelta(r.winMark.cpuBusy, to.cpuBusy, r.winMark.t, to.t),
		DiskUtil:     utilDelta(r.winMark.diskBusy, to.diskBusy, r.winMark.t, to.t),
	}
	if s.Window > 0 {
		s.Throughput = float64(s.Completed) / s.Window
	}
	if r.res != nil {
		s.P50 = r.res.Percentile(50)
		s.P95 = r.res.Percentile(95)
		s.P99 = r.res.Percentile(99)
	}
	s.Classes = classReports(st, &r.window, r.winMark, to, r.resClass, maxSnapshotClasses)
	if c := st.Cluster; c != nil {
		s.FleetSize = c.NumShards()
		s.FleetUp = c.UpCount()
	}
	if r.asc != nil {
		ups, downs := r.asc.ScaleUps(), r.asc.ScaleDowns()
		s.ScaleUps = ups - r.snapUps
		s.ScaleDowns = downs - r.snapDowns
		r.snapUps, r.snapDowns = ups, downs
	}
	s.Shards = r.shardStats(to)
	for _, o := range r.obs {
		o.OnInterval(s)
	}
	r.window.Reset()
	r.winMark = to
}
