package extsched

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"extsched/internal/runner"
	"extsched/internal/trace"
	"extsched/metrics"
)

// Trace is a replayable transaction trace: ordered arrival timestamps
// with per-transaction service demands. Build one from your own logs,
// or synthesize one with TraceSynth / the cmd/tracegen tool.
type Trace = trace.Trace

// TraceRecord is one traced transaction.
type TraceRecord = trace.Record

// TraceSynth parameterizes synthetic trace generation (lognormal
// demands fit to a mean and C², Poisson or burst-modulated arrivals) —
// the JSON-friendly way to put a trace phase in a scenario file
// without embedding records.
type TraceSynth = trace.SynthConfig

// The scenario vocabulary has one definition: the spec types of the
// runner that executes it (internal/runner/spec.go, which documents
// every field and its JSON key). These aliases re-export it, so a
// Scenario built or parsed here is exactly the spec that runs, and
// Scenario.Validate is the runner's validation. A Scenario is a
// warmup, then an ordered list of traffic phases with mid-phase
// control events; one System runs any number of scenarios, each on
// pristine simulation state, so repeated runs of the same scenario
// with the same Config.Seed are bit-identical.
type (
	Scenario        = runner.Spec
	Phase           = runner.Phase
	PhaseKind       = runner.Kind
	Event           = runner.Event
	TenantSpec      = runner.TenantSpec
	TenantLimits    = runner.TenantLimits
	FairnessSpec    = runner.FairnessSpec
	ControllerSpec  = runner.ControllerSpec
	SLOSpec         = runner.SLOSpec
	ClassLimits     = runner.ClassLimits
	AdmitDeadline   = runner.AdmitDeadline
	ShardSpeedEvent = runner.ShardSpeedEvent
	ChurnSpec       = runner.ChurnSpec
	AutoscaleSpec   = runner.AutoscaleSpec
)

// Phase kinds accepted by Phase.Kind (runner.Kind* documents each).
const (
	PhaseClosed  = runner.KindClosed  // fixed client population (§3.1 closed system)
	PhaseOpen    = runner.KindOpen    // Poisson arrivals at Lambda (§3.2 open system)
	PhaseRamp    = runner.KindRamp    // rate ramps linearly from Lambda to Lambda2
	PhaseBurst   = runner.KindBurst   // two-state MMPP flash crowds, mean rate Lambda
	PhaseTrace   = runner.KindTrace   // trace replay (Trace or TraceSynth)
	PhaseDiurnal = runner.KindDiurnal // sine-modulated Poisson around Lambda
	PhaseFlash   = runner.KindFlash   // Poisson at Lambda with one flash-crowd window
)

// ParseScenario decodes a JSON scenario (as written by cmd/dbsim
// -scenario files) and validates it. Unknown fields are rejected, so
// typos in hand-written scenario files fail loudly.
func ParseScenario(data []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("extsched: parsing scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// PhaseResult is one phase's slice of the measurement window.
type PhaseResult struct {
	Name string
	Kind string
	Report
}

// ShardResult is one shard's slice of the whole measurement window
// (sharded systems only). Its Report covers only the transactions
// the dispatcher routed to this shard; device utilizations and lock
// counters are the shard's own.
type ShardResult struct {
	// Shard is the shard index; Speed its relative CPU speed when the
	// run ended.
	Shard int
	Speed float64
	// Dispatched counts arrivals routed to the shard in the window.
	Dispatched uint64
	// State is the shard's lifecycle state when the run ended ("up",
	// "draining", "down").
	State string
	// Availability is the fraction of the measurement window the shard
	// was serving (1 when the scenario never touched it; a shard added
	// mid-run accrues only from its join).
	Availability float64
	// P95 is the shard's own response-time 95th percentile, estimated
	// with a constant-memory P² tracker (PercentileSamples mode only, 0
	// otherwise). The estimator holds five markers per shard instead of
	// a sample reservoir, so per-shard tails stay reportable at
	// thousand-shard fleets without O(N·samples) memory.
	P95 float64
	Report
}

// Controller outcomes are the runner's reports, re-exported: Tune for
// the feedback controller (AutoTune, enable_controller), SLO for the
// latency-SLO loop (Config.SLO, set_slo), Fairness for the max-min
// fairness loop (Scenario.Fairness, enable_fairness) and Autoscale for
// the fleet autoscaler (Scenario.Autoscale).
type (
	TuneResult      = runner.TuneReport
	SLOResult       = runner.SLOReport
	FairnessResult  = runner.FairnessReport
	AutoscaleResult = runner.AutoscaleReport
)

// ClassResult is one tenant class's slice of a Report window.
// Per-class tails, the SLO signal, live here.
type ClassResult struct {
	// Class is the tenant's class ID (its position in the tenants
	// block); Name its registered name ("" when unregistered).
	Class int
	Name  string
	// Completed / Shed count the class's completions and deadline-shed
	// rejections in the window.
	Completed, Shed uint64
	// MeanRT is the class's mean response time in seconds; P95 its
	// 95th percentile (whole-run reports in PercentileSamples mode
	// only — phase slices carry no per-class reservoir).
	MeanRT, P95 float64
}

// Result is a completed scenario run.
type Result struct {
	// Total aggregates the whole measurement window (warmup excluded;
	// only work that completed inside the window counts — see the
	// windowing rule in Report).
	Total Report
	// Phases slices the window per phase, in execution order. A run
	// stopped early by controller convergence omits the unreached
	// phases.
	Phases []PhaseResult
	// Shards slices the window per shard (nil for unsharded systems).
	Shards []ShardResult
	// Snapshots is the interval time series (empty unless
	// Scenario.SampleInterval was set).
	Snapshots []metrics.Snapshot
	// Tune is non-nil when the scenario enabled the controller.
	Tune *TuneResult
	// SLO is non-nil when the latency-SLO controller ran.
	SLO *SLOResult
	// Fairness is non-nil when the max-min fairness controller ran.
	Fairness *FairnessResult
	// Autoscale is non-nil when Scenario.Autoscale armed the fleet
	// autoscaler.
	Autoscale *AutoscaleResult
	// FinalMPL is the MPL when the run ended (mid-phase events or the
	// controller may have moved it off Config.MPL).
	FinalMPL int
}

// ExampleScenarioJSON is a runnable template for scenario files (cmd/
// dbsim prints it with -scenario-example, and the fuzz corpus seeds
// from it): three weighted tenants under the strict max-min fairness
// controller through a steady closed phase, an open ramp surge that
// swaps the fairness loop for the throughput feedback controller
// (the two share the metrics window, so only one runs at a time) and
// rebalances the tenant weights mid-flight, and a synthesized bursty
// trace replay.
const ExampleScenarioJSON = `{
  "name": "surge-demo",
  "warmup": 30,
  "sample_interval": 20,
  "tenants": [
    {"name": "batch", "weight": 1, "share": 0.5},
    {"name": "web", "weight": 4, "share": 0.3},
    {"name": "api", "weight": 4, "share": 0.2, "slo_target": 2}
  ],
  "fairness": {"strict": true},
  "phases": [
    {
      "name": "steady",
      "kind": "closed",
      "duration": 200,
      "clients": 100
    },
    {
      "name": "surge",
      "kind": "ramp",
      "duration": 200,
      "lambda": 50,
      "lambda2": 120,
      "events": [
        {"at": 0, "disable_fairness": true},
        {
          "at": 1,
          "enable_controller": {
            "max_throughput_loss": 0.05,
            "reference_throughput": 95
          }
        },
        {"at": 50, "set_weights": {"web": 8, "batch": 1}}
      ]
    },
    {
      "name": "replay",
      "kind": "trace",
      "duration": 200,
      "trace_synth": {
        "N": 20000,
        "MeanDemand": 0.01,
        "DemandC2": 2.0,
        "Lambda": 80,
        "Burstiness": 2,
        "Seed": 7
      }
    }
  ]
}
`

// reportFrom converts a runner report to the public vocabulary.
func reportFrom(r runner.Report) Report {
	rep := Report{
		SimSeconds:  r.Window,
		Completed:   r.Completed,
		Throughput:  r.Throughput(),
		MeanRT:      r.All.Mean(),
		MeanInside:  r.Inside.Mean(),
		ExternalW:   r.ExtWait.Mean(),
		Restarts:    r.Restarts,
		CPUUtil:     r.CPUUtil,
		DiskUtil:    r.DiskUtil,
		DemandC2:    r.Inside.C2(),
		LockWaits:   r.LockWaits,
		Deadlocks:   r.Deadlocks,
		Preemptions: r.Preemptions,
		Dropped:     r.Dropped,
		Shed:        r.Shed,
		Failed:      r.Failed,
		Resubmitted: r.Resubmitted,
		Retries:     r.Retries,
		P50:         r.P50,
		P95:         r.P95,
		P99:         r.P99,
	}
	for _, c := range r.Classes {
		rep.Classes = append(rep.Classes, ClassResult{
			Class:     c.Class,
			Name:      c.Name,
			Completed: c.Completed,
			Shed:      c.Shed,
			MeanRT:    c.Mean,
			P95:       c.P95,
		})
	}
	return rep
}

// Run executes the scenario on pristine simulation state assembled
// from the System's Config: every run rebuilds the engine, DBMS,
// frontend, and generator from the same seed, so running the same
// scenario twice — on one System or on two — produces bit-identical
// Results. Observers registered with Observe (plus any passed here)
// receive windowed snapshots each SampleInterval, synchronously on the
// simulation goroutine. ctx cancels between breakpoints.
func (s *System) Run(ctx context.Context, sc Scenario, obs ...metrics.Observer) (Result, error) {
	return s.runScenario(ctx, sc, nil, obs...)
}

// runScenario is Run with an optional MPL override for the fresh stack
// (AutoTune starts at the model's jump-start value, not Config.MPL).
func (s *System) runScenario(ctx context.Context, sc Scenario, initialMPL *int, obs ...metrics.Observer) (Result, error) {
	// Vet the scenario against this System's fleet before building
	// anything; runner.Run repeats the same checks on the stack.
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	if err := sc.CheckStack(s.cfg.Shards.Count); err != nil {
		return Result{}, err
	}
	mpl := s.cfg.MPL
	if initialMPL != nil {
		mpl = *initialMPL
	}
	st, err := s.buildStack(mpl)
	if err != nil {
		return Result{}, err
	}
	s.cur = &st
	defer func() { s.cur = nil }()
	var collector *metrics.Collector
	all := make([]metrics.Observer, 0, len(s.observers)+len(obs)+1)
	all = append(all, s.observers...)
	all = append(all, obs...)
	if sc.SampleInterval > 0 {
		collector = &metrics.Collector{}
		all = append(all, collector)
	}
	out, err := runner.Run(ctx, st, sc, all...)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Total:     reportFrom(out.Total),
		Tune:      out.Tune,
		SLO:       out.SLO,
		Fairness:  out.Fairness,
		Autoscale: out.Autoscale,
		FinalMPL:  out.FinalMPL,
	}
	for _, pr := range out.Phases {
		res.Phases = append(res.Phases, PhaseResult{Name: pr.Name, Kind: string(pr.Kind), Report: reportFrom(pr.Report)})
	}
	for _, sr := range out.Shards {
		res.Shards = append(res.Shards, ShardResult{
			Shard: sr.Shard, Speed: sr.Speed, Dispatched: sr.Dispatched,
			State: sr.State, Availability: sr.Availability, P95: sr.P95,
			Report: reportFrom(sr.Report),
		})
	}
	if collector != nil {
		res.Snapshots = collector.Snapshots
	}
	return res, nil
}
