// Package extsched is a reproduction of Schroeder, Harchol-Balter,
// Iyengar, Nahum and Wierman, "How to determine a good
// multi-programming level for external scheduling" (ICDE 2006).
//
// It provides:
//
//   - a discrete-event-simulated transactional DBMS (multi-core PS
//     CPU, striped disks + group-commit log device, LRU buffer pool,
//     strict-2PL lock manager with deadlock detection, wait timeouts
//     and Preempt-on-Wait, plus a PostgreSQL-style snapshot-isolation
//     mode);
//   - the paper's external scheduling front-end: an MPL gate with a
//     reorderable external queue (FIFO / Priority / SJF / WFQ) and an
//     optional admission-control drop mode;
//   - the queueing models of Sections 4.1–4.2 (closed-network MVA and
//     the matrix-geometric solution of the FIFO→PS-with-MPL chain);
//   - the Section 4.3 feedback controller that auto-tunes the MPL to
//     DBA-specified throughput/response-time tolerances; and
//   - drivers that regenerate every figure and table of the paper's
//     evaluation (see the experiments subcommands of cmd/benchrunner
//     and the benchmarks at the repository root).
//
// The System type in this package is the high-level entry point: it
// binds a simulated DBMS configuration — one of the paper's Table 2
// setups, or a custom one — to the external scheduler, and runs
// declarative Scenarios against it: ordered phases of traffic (closed
// populations, open Poisson, bursty MMPP, rate ramps, trace replays)
// with mid-phase control events (MPL changes, queue reweighting, the
// feedback controller). Each Run rebuilds pristine simulation state
// from the Config's seed, so a System is reusable and repeated runs
// are bit-identical. RunClosed, RunOpen and AutoTune are thin wrappers
// over one-phase scenarios; streaming time-series metrics flow to
// metrics.Observer implementations registered with Observe. Lower-
// level building blocks live in the internal packages.
package extsched

import (
	"context"
	"fmt"

	"extsched/internal/cluster"
	"extsched/internal/controller"
	"extsched/internal/core"
	"extsched/internal/dbfe"
	"extsched/internal/dbms"
	"extsched/internal/dist"
	"extsched/internal/lockmgr"
	"extsched/internal/queueing/mva"
	"extsched/internal/queueing/qbd"
	"extsched/internal/runner"
	"extsched/internal/sim"
	"extsched/internal/workload"
	"extsched/metrics"
)

// Policy names accepted by Config.Policy.
const (
	PolicyFIFO     = "fifo"
	PolicyPriority = "priority"
	PolicySJF      = "sjf"
	PolicyWFQ      = "wfq"
)

// Config assembles a simulated system.
type Config struct {
	// SetupID selects one of the paper's Table 2 setups (1-17).
	// Zero means use the explicit fields below instead.
	SetupID int
	// Workload names a Table 1 workload (e.g. "W_CPU-inventory") when
	// SetupID is zero.
	Workload string
	// CPUs / Disks / Isolation configure the hardware when SetupID is
	// zero. Isolation is "RR" (default) or "UR".
	CPUs, Disks int
	Isolation   string
	// MPL is the multiprogramming limit; 0 = unlimited.
	MPL int
	// Policy orders the external queue: "fifo" (default), "priority",
	// "sjf", or "wfq".
	Policy string
	// InternalLockPriority enables priority lock queues with
	// Preempt-on-Wait (the Shore experiment of Section 5.2).
	InternalLockPriority bool
	// InternalCPUPriority enables renice-style CPU priorities (the DB2
	// experiment of Section 5.2).
	InternalCPUPriority bool
	// HighPriorityFraction tags this fraction of transactions High
	// (default 0.1, the paper's choice).
	HighPriorityFraction float64
	// WFQHighWeight sets the High class's weight for the "wfq" policy
	// (Low gets 1). Default 4.
	WFQHighWeight float64
	// QueueLimit, when > 0, switches the frontend to admission-control
	// mode: arrivals beyond the limit are dropped (the related-work
	// comparison; pure external scheduling never drops).
	QueueLimit int
	// PercentileSamples, when > 0, reservoir-samples response times so
	// Report carries P50/P95/P99 and the per-class P95s in Classes.
	// Setting SLO or AdmitDeadline defaults it to 2048 — those features
	// are judged by per-class tails, so the report must carry them.
	PercentileSamples int
	// SLO, when non-nil, runs every scenario under the latency-SLO
	// controller from the start of its measurement window: the MPL is
	// partitioned across the classes and the split steered to hold the
	// protected class's percentile target. Requires MPL >= 2; the
	// capability table's SLO row applies (unsharded systems only).
	// Scenario SetSLO events can replace it mid-run.
	SLO *SLOSpec
	// ClassLimits, when non-nil, installs a static per-class MPL
	// partition from the start (both limits >= 1; the capability
	// table's partition row applies).
	ClassLimits *ClassLimits
	// AdmitDeadline, when non-nil, sets per-class admission deadlines:
	// transactions that cannot start in time are shed (counted in
	// Report.Shed) instead of queueing unboundedly.
	AdmitDeadline *AdmitDeadline
	// Recovery configures what happens to the work a failed shard held
	// when a scenario injects faults (shard_fail events or a churn
	// phase). Nil sheds: the work is lost and counted in Report.Failed.
	// Sharded systems only.
	Recovery *RecoverySpec
	// Shards, when Count > 0, fronts a fleet of identical backends
	// instead of one: every run builds Count DBMS+frontend pairs and a
	// dispatch layer that routes each arriving transaction to one of
	// them. MPL then reads as the cluster-wide limit (split across
	// shards), and QueueLimit applies per shard.
	Shards ShardSpec
	// Seed fixes all randomness (default 1).
	Seed uint64
}

// Recovery modes accepted by RecoverySpec.Mode.
const (
	// RecoveryShed loses a dead shard's work: each txn's callback fires
	// with failure marked, and the loss is counted in Report.Failed.
	RecoveryShed = "shed"
	// RecoveryResubmit re-routes a dead shard's work to surviving
	// shards after a deterministic capped exponential backoff, up to
	// RetryBudget attempts per transaction.
	RecoveryResubmit = "resubmit"
)

// RecoverySpec configures the sharded fault model's recovery policy.
type RecoverySpec struct {
	// Mode is RecoveryShed (default) or RecoveryResubmit.
	Mode string `json:"mode,omitempty"`
	// RetryBudget is the maximum recovery attempts per logical
	// transaction; required >= 1 for resubmit mode.
	RetryBudget int `json:"retry_budget,omitempty"`
	// BackoffBase and BackoffCap bound the backoff schedule in seconds:
	// attempt k waits min(cap, base·2^(k−1)) scaled by deterministic
	// jitter in [0.5, 1). Zero values default to 0.05 s / 2 s.
	BackoffBase float64 `json:"backoff_base,omitempty"`
	BackoffCap  float64 `json:"backoff_cap,omitempty"`
}

// ShardSpec configures multi-backend sharded dispatch.
type ShardSpec struct {
	// Count is the number of shards (0 = unsharded single backend).
	Count int
	// Speeds are per-shard relative CPU speed multipliers (1 =
	// nominal); empty means all 1, otherwise len must equal Count.
	// Scenario SetShardSpeed events change them mid-run.
	Speeds []float64
	// Dispatch names the routing policy: "rr" (default), "jsq", "lwl",
	// "affinity", or the sampled power-of-d variants "jsq-d"/"lwl-d"
	// with an optional width suffix like "jsq-d:3" (see
	// internal/cluster). Sampled policies draw from a dedicated seeded
	// stream, so runs stay bit-identical. Scenario SetDispatch events
	// switch the policy mid-run.
	Dispatch string
}

// Validate checks the config's standalone fields up front, before any
// simulation state is built: limits must be non-negative, names must
// be known. NewSystem calls it; call it directly to vet user-supplied
// configs (CLI flags, API payloads) cheaply.
func (c Config) Validate() error {
	if c.SetupID == 0 && c.Workload == "" {
		return fmt.Errorf("extsched: either SetupID or Workload is required")
	}
	if c.MPL < 0 {
		return fmt.Errorf("extsched: MPL %d must be >= 0", c.MPL)
	}
	if c.CPUs < 0 || c.Disks < 0 {
		return fmt.Errorf("extsched: CPUs %d and Disks %d must be >= 0", c.CPUs, c.Disks)
	}
	switch c.Policy {
	case "", PolicyFIFO, PolicyPriority, PolicySJF, PolicyWFQ:
	default:
		return fmt.Errorf("extsched: unknown policy %q (want %s, %s, %s or %s)",
			c.Policy, PolicyFIFO, PolicyPriority, PolicySJF, PolicyWFQ)
	}
	if _, err := parseIsolation(c.Isolation); err != nil {
		return err
	}
	if c.HighPriorityFraction < 0 || c.HighPriorityFraction > 1 {
		return fmt.Errorf("extsched: HighPriorityFraction %v outside [0,1]", c.HighPriorityFraction)
	}
	if c.WFQHighWeight < 0 {
		return fmt.Errorf("extsched: WFQHighWeight %v must be >= 0 (0 = default)", c.WFQHighWeight)
	}
	if c.QueueLimit < 0 {
		return fmt.Errorf("extsched: QueueLimit %d must be >= 0", c.QueueLimit)
	}
	if c.PercentileSamples < 0 {
		return fmt.Errorf("extsched: PercentileSamples %d must be >= 0", c.PercentileSamples)
	}
	if c.Shards.Count < 0 {
		return fmt.Errorf("extsched: Shards.Count %d must be >= 0", c.Shards.Count)
	}
	if s := c.SLO; s != nil {
		if err := s.Validate(); err != nil {
			return err
		}
		if c.MPL < 2 {
			return fmt.Errorf("extsched: SLO control needs MPL >= 2 to partition, have %d", c.MPL)
		}
		if err := runner.FeatureSLO.Check("Config.SLO", c.Shards.Count); err != nil {
			return err
		}
	}
	if cl := c.ClassLimits; cl != nil {
		if cl.High < 1 || cl.Low < 1 {
			return fmt.Errorf("extsched: class limits high=%d low=%d must both be >= 1", cl.High, cl.Low)
		}
		if err := runner.FeaturePartition.Check("Config.ClassLimits", c.Shards.Count); err != nil {
			return err
		}
	}
	if ad := c.AdmitDeadline; ad != nil {
		if err := ad.Validate(); err != nil {
			return err
		}
	}
	if n := len(c.Shards.Speeds); n > 0 && n != c.Shards.Count {
		return fmt.Errorf("extsched: Shards.Speeds has %d entries for %d shards", n, c.Shards.Count)
	}
	for i, s := range c.Shards.Speeds {
		if s <= 0 {
			return fmt.Errorf("extsched: shard %d speed %v must be positive", i, s)
		}
	}
	if c.Shards.Count == 0 && (len(c.Shards.Speeds) > 0 || c.Shards.Dispatch != "") {
		return fmt.Errorf("extsched: Shards.Speeds/Dispatch set without Shards.Count")
	}
	if r := c.Recovery; r != nil {
		if c.Shards.Count == 0 {
			return fmt.Errorf("extsched: Recovery set without Shards.Count")
		}
		switch r.Mode {
		case "", RecoveryShed:
			// The budget and backoff are resubmit-mode knobs.
		case RecoveryResubmit:
			if r.RetryBudget < 1 {
				return fmt.Errorf("extsched: resubmit recovery needs RetryBudget >= 1, have %d", r.RetryBudget)
			}
		default:
			return fmt.Errorf("extsched: unknown recovery mode %q (want %s or %s)", r.Mode, RecoveryShed, RecoveryResubmit)
		}
		if r.RetryBudget < 0 {
			return fmt.Errorf("extsched: RetryBudget %d must be >= 0", r.RetryBudget)
		}
		if r.BackoffBase < 0 || r.BackoffCap < 0 {
			return fmt.Errorf("extsched: backoff base %v and cap %v must be >= 0", r.BackoffBase, r.BackoffCap)
		}
		if r.BackoffBase > 0 && r.BackoffCap > 0 && r.BackoffBase > r.BackoffCap {
			return fmt.Errorf("extsched: backoff base %v exceeds cap %v", r.BackoffBase, r.BackoffCap)
		}
	}
	if _, err := cluster.NewPolicy(c.Shards.Dispatch); err != nil {
		return err
	}
	return nil
}

// System binds a resolved configuration to the scenario engine. It
// holds no simulation state between runs: Run (and the RunClosed /
// RunOpen / AutoTune wrappers) each assemble a pristine engine, DBMS,
// frontend and generator from the Config's seed, which is what makes a
// System reusable and its runs reproducible. A System is not safe for
// concurrent use; build one per goroutine (they are cheap — assembly
// happens per run).
type System struct {
	cfg       Config
	setup     workload.Setup
	observers []metrics.Observer
	// cur points at the executing run's stack while Run is on the
	// call stack, so MPL/SetMPL work from observer callbacks.
	cur *runner.Stack
}

// parseIsolation is the single source of truth for isolation-level
// names ("" defaults to RR). Config.Validate and resolveSetup both use
// it, so the accepted set cannot drift between validation and
// assembly.
func parseIsolation(name string) (dbms.Isolation, error) {
	switch name {
	case "", "RR":
		return dbms.RR, nil
	case "UR":
		return dbms.UR, nil
	case "SI":
		return dbms.SI, nil
	default:
		return 0, fmt.Errorf("extsched: unknown isolation %q (want RR, UR or SI)", name)
	}
}

// resolveSetup maps a Config to a workload.Setup.
func resolveSetup(cfg Config) (workload.Setup, error) {
	if cfg.SetupID != 0 {
		return workload.SetupByID(cfg.SetupID)
	}
	if cfg.Workload == "" {
		return workload.Setup{}, fmt.Errorf("extsched: either SetupID or Workload is required")
	}
	spec, err := workload.ByName(cfg.Workload)
	if err != nil {
		return workload.Setup{}, err
	}
	cpus, disks := cfg.CPUs, cfg.Disks
	if cpus == 0 {
		cpus = 1
	}
	if disks == 0 {
		disks = 1
	}
	iso, err := parseIsolation(cfg.Isolation)
	if err != nil {
		return workload.Setup{}, err
	}
	return workload.Setup{ID: 0, Workload: spec, CPUs: cpus, Disks: disks, Isolation: iso}, nil
}

// NewSystem validates cfg and resolves its setup. No simulation state
// is built here — that happens per Run.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	setup, err := resolveSetup(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	// Vet the policy name and workload spec now, so configuration
	// errors surface at construction rather than on the first Run.
	if _, err := core.NewPolicy(cfg.Policy, nil); err != nil {
		return nil, err
	}
	if err := setup.Workload.Validate(); err != nil {
		return nil, err
	}
	return &System{cfg: cfg, setup: setup}, nil
}

// Observe registers observers that every subsequent Run streams
// interval snapshots to (when the scenario sets SampleInterval).
// Observers are called synchronously on the simulation goroutine, so
// they may inspect the System — or steer it via SetMPL — mid-run.
func (s *System) Observe(obs ...metrics.Observer) {
	s.observers = append(s.observers, obs...)
}

// buildStack assembles the pristine per-run simulation state.
func (s *System) buildStack(mpl int) (runner.Stack, error) {
	cfg := s.cfg
	w := cfg.WFQHighWeight
	if w <= 0 {
		w = 4
	}
	wfqWeights := map[core.Class]float64{core.ClassHigh: w, core.ClassLow: 1}
	dbo := workload.DBOptions{
		LockPolicy:  map[bool]lockmgr.Policy{true: lockmgr.PriorityFIFO, false: lockmgr.FIFO}[cfg.InternalLockPriority],
		POW:         cfg.InternalLockPriority,
		CPUPriority: cfg.InternalCPUPriority,
		Seed:        cfg.Seed,
	}
	eng := sim.NewEngine()
	gen, err := workload.NewGenerator(s.setup.Workload, cfg.Seed)
	if err != nil {
		return runner.Stack{}, err
	}
	if cfg.HighPriorityFraction > 0 {
		gen.HighFrac = cfg.HighPriorityFraction
	}
	st := runner.Stack{
		Eng: eng, Gen: gen,
		PercentileSamples: cfg.PercentileSamples,
		Seed:              cfg.Seed,
	}
	// An SLO or shedding config is judged by per-class tails: without
	// sampling, the per-class P95s would read 0 while the controller
	// steers on real percentiles. Default the sampling on.
	if st.PercentileSamples == 0 && (cfg.SLO != nil || cfg.AdmitDeadline != nil) {
		st.PercentileSamples = 2048
	}
	st.SLO = cfg.SLO
	// backend builds one DBMS+frontend pair on eng: the lone backend,
	// or one shard of the fleet (Config.Validate keeps ClassLimits off
	// sharded configs).
	backend := func(dbo workload.DBOptions, mpl int) (*dbms.DB, *dbfe.Frontend, error) {
		db, err := dbms.New(eng, s.setup.BuildConfig(dbo))
		if err != nil {
			return nil, nil, err
		}
		policy, err := core.NewPolicy(cfg.Policy, wfqWeights)
		if err != nil {
			return nil, nil, err
		}
		fe := dbfe.New(eng, db, mpl, policy)
		if cfg.QueueLimit > 0 {
			fe.SetQueueLimit(cfg.QueueLimit)
		}
		if cl := cfg.ClassLimits; cl != nil {
			fe.SetClassLimits(map[core.Class]int{core.ClassHigh: cl.High, core.ClassLow: cl.Low})
		}
		if ad := cfg.AdmitDeadline; ad != nil {
			fe.SetAdmitDeadline(core.ClassHigh, ad.High)
			fe.SetAdmitDeadline(core.ClassLow, ad.Low)
		}
		workload.Prewarm(db, s.setup.Workload, dbo.Seed)
		return db, fe, nil
	}
	if n := cfg.Shards.Count; n > 0 {
		// Sharded: n identical DBMS+frontend pairs (per-shard queue
		// policy instances — they are stateful) behind one dispatcher.
		// makeShard also serves scenario shard_add events, which grow
		// the fleet mid-run with index-seeded nominal-speed members.
		makeShard := func(i int, speed float64) (cluster.Shard, error) {
			sdbo := dbo
			sdbo.CPUSpeed = speed
			sdbo.Seed = cluster.ShardSeed(cfg.Seed, i)
			db, fe, err := backend(sdbo, 0)
			if err != nil {
				return cluster.Shard{}, err
			}
			return cluster.Shard{FE: fe, DB: db, Speed: speed}, nil
		}
		shards := make([]cluster.Shard, n)
		for i := range shards {
			speed := 1.0
			if len(cfg.Shards.Speeds) > 0 {
				speed = cfg.Shards.Speeds[i]
			}
			sh, err := makeShard(i, speed)
			if err != nil {
				return runner.Stack{}, err
			}
			shards[i] = sh
		}
		dp, err := cluster.NewPolicySeeded(cfg.Shards.Dispatch, cfg.Seed)
		if err != nil {
			return runner.Stack{}, err
		}
		disp, err := cluster.NewDispatcher(dp, shards)
		if err != nil {
			return runner.Stack{}, err
		}
		disp.SetMPL(mpl)
		st.Cluster = disp
		st.NewShard = func(i int) (cluster.Shard, error) { return makeShard(i, 1) }
		rp := cluster.RecoveryPolicy{Seed: cfg.Seed}
		if r := cfg.Recovery; r != nil {
			rp.Resubmit = r.Mode == RecoveryResubmit
			rp.RetryBudget = r.RetryBudget
			rp.BackoffBase = r.BackoffBase
			rp.BackoffCap = r.BackoffCap
		}
		st.Recovery = &rp
		return st, nil
	}
	db, fe, err := backend(dbo, mpl)
	if err != nil {
		return runner.Stack{}, err
	}
	st.DB, st.FE = db, fe
	return st, nil
}

// Report summarizes one measurement window. The windowing rule is
// uniform across all run styles: the window opens when warmup ends and
// closes when the scenario's last phase elapses, and a completion
// counts if and only if it lands inside the window — work still in
// flight at the close is excluded, and nothing completing later can
// pollute the numbers.
type Report struct {
	SimSeconds    float64
	Completed     uint64
	Throughput    float64 // transactions/second
	MeanRT        float64 // overall mean response time (s)
	MeanInside    float64 // mean time inside the DBMS (s)
	ExternalW     float64 // mean external queue wait (s)
	Restarts      uint64  // abort/restart cycles observed
	CPUUtil       float64
	DiskUtil      float64
	DemandC2      float64 // measured C² of the time spent inside the DBMS
	LockWaits     uint64
	Deadlocks     uint64
	Preemptions   uint64
	Dropped       uint64  // admission-control rejections (QueueLimit mode)
	Shed          uint64  // deadline-missed rejections (AdmitDeadline mode)
	Failed        uint64  // txns terminally lost to shard failures
	Resubmitted   uint64  // logical txns re-routed to a survivor at least once
	Retries       uint64  // resubmission events (one txn can retry several times)
	P50, P95, P99 float64 // response-time percentiles (PercentileSamples mode)
	// Classes is the per-tenant breakdown of the window, in ascending
	// class-ID order: one entry per class that completed or shed work.
	// Per-class tails (the SLO signal) live here; Class looks one up.
	Classes []ClassResult
}

// Class returns the entry for class ID id (the zero entry, with Class
// set, when the class neither completed nor shed work in the window).
func (r Report) Class(id int) ClassResult {
	for _, c := range r.Classes {
		if c.Class == id {
			return c
		}
	}
	return ClassResult{Class: id}
}

// RunClosed drives the system with a fixed client population (the
// paper's closed system; clients <= 0 means its 100) for measure
// simulated seconds after warmup seconds of warm-up. It is a one-phase
// Scenario; the System is reusable afterwards.
func (s *System) RunClosed(clients int, warmup, measure float64) (Report, error) {
	if clients < 0 {
		clients = 0
	}
	res, err := s.Run(context.Background(), Scenario{
		Warmup: warmup,
		Phases: []Phase{{Kind: PhaseClosed, Clients: clients, Duration: measure}},
	})
	return res.Total, err
}

// RunOpen drives the system with Poisson arrivals at rate lambda. Like
// every run, it reports exactly the measure-second window: work still
// queued or executing when the window closes is not counted.
func (s *System) RunOpen(lambda, warmup, measure float64) (Report, error) {
	res, err := s.Run(context.Background(), Scenario{
		Warmup: warmup,
		Phases: []Phase{{Kind: PhaseOpen, Lambda: lambda, Duration: measure}},
	})
	return res.Total, err
}

// SetMPL changes the MPL: of the executing run when called from an
// observer callback mid-run, otherwise of the configuration the next
// run starts from. On a sharded system the value is the cluster-wide
// limit.
func (s *System) SetMPL(mpl int) {
	if st := s.cur; st != nil {
		st.Gate().SetMPL(mpl)
		return
	}
	s.cfg.MPL = mpl
}

// MPL returns the current limit: the executing run's live value
// mid-run, the configured starting value otherwise.
func (s *System) MPL() int {
	if st := s.cur; st != nil {
		return st.Gate().MPL()
	}
	return s.cfg.MPL
}

// Setup describes the resolved Table 2 setup.
func (s *System) Setup() string { return s.setup.String() }

// AutoTune runs the Section 4.3 controller against this system under a
// closed workload until convergence (or until horizon simulated
// seconds elapse). maxLoss is the DBA's acceptable throughput loss
// (e.g. 0.05); referenceTput the no-MPL optimum (measure it with an
// unlimited run, or use RecommendMPL's model). It is a one-phase
// scenario: the queueing models pick the starting MPL, an event at the
// window's start hands control to the feedback loop, and the run stops
// at convergence.
func (s *System) AutoTune(clients int, maxLoss, referenceTput, horizon float64) (TuneResult, error) {
	cpuD, ioD := s.setup.Demands()
	start, err := controller.JumpStart(controller.JumpStartInput{
		CPUs: s.setup.CPUs, Disks: s.setup.Disks,
		CPUDemand: cpuD, IODemand: ioD,
		DiskCV2:            s.setup.Workload.DiskService.C2(),
		ThroughputFraction: 1 - maxLoss,
	})
	if err != nil {
		return TuneResult{}, err
	}
	if clients < 0 {
		clients = 0
	}
	warm := horizon / 20
	res, err := s.runScenario(context.Background(), Scenario{
		Warmup:         warm,
		SampleInterval: horizon / 40, // convergence-check granularity
		Phases: []Phase{{
			Kind: PhaseClosed, Clients: clients, Duration: horizon - warm,
			Events: []Event{{EnableController: &ControllerSpec{
				MaxThroughputLoss:   maxLoss,
				ReferenceThroughput: referenceTput,
				StopOnConverge:      true,
			}}},
		}},
	}, &start)
	if err != nil {
		return TuneResult{}, err
	}
	if res.Tune == nil {
		return TuneResult{}, fmt.Errorf("extsched: controller never engaged")
	}
	return *res.Tune, nil
}

// Recommendation is the output of the pure-model MPL tool.
type Recommendation struct {
	// ThroughputMPL is the Section 4.1 MVA bound: the lowest MPL
	// keeping throughput within the loss tolerance.
	ThroughputMPL int
	// ResponseTimeMPL is the Section 4.2 QBD bound (0 when no open-
	// system load was specified).
	ResponseTimeMPL int
	// MPL is the recommendation: the max of the two bounds.
	MPL int
}

// RecommendMPL runs the paper's analytic tool without any simulation:
// given hardware shape, per-transaction demands, and tolerances, it
// returns the lowest MPL the queueing models consider safe.
// lambda/meanDemand/demandC2 describe the open-system load for the
// response-time bound; pass zeros to skip it.
func RecommendMPL(cpus, disks int, cpuDemand, ioDemand, maxTputLoss float64,
	lambda, meanDemand, demandC2, maxRTIncrease float64) (Recommendation, error) {
	nw, err := mva.Balanced(cpus, disks, cpuDemand, ioDemand)
	if err != nil {
		return Recommendation{}, err
	}
	rec := Recommendation{ThroughputMPL: nw.MinMPLForFraction(1-maxTputLoss, 500)}
	rec.MPL = rec.ThroughputMPL
	if lambda > 0 && meanDemand > 0 && demandC2 > 1 {
		if rho := lambda * meanDemand; rho < 1 {
			tol := maxRTIncrease
			if tol <= 0 {
				tol = 0.1
			}
			m, err := qbd.MinMPLForResponseTime(lambda, dist.FitH2(meanDemand, demandC2), tol, 200)
			if err != nil {
				return Recommendation{}, err
			}
			rec.ResponseTimeMPL = m
			if m > rec.MPL {
				rec.MPL = m
			}
		}
	}
	return rec, nil
}

// Setups lists the paper's Table 2 setups as display strings.
func Setups() []string {
	var out []string
	for _, s := range workload.Table2() {
		out = append(out, s.String())
	}
	return out
}

// Workloads lists the paper's Table 1 workload names.
func Workloads() []string {
	var out []string
	for _, s := range workload.Table1() {
		out = append(out, s.Name)
	}
	return out
}
