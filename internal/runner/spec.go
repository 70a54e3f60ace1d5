package runner

import (
	"fmt"
	"math"

	"extsched/internal/autoscale"
	"extsched/internal/cluster"
	"extsched/internal/core"
	"extsched/internal/fairness"
	"extsched/internal/trace"
)

// This file is the repository's one scenario vocabulary: the types a
// scenario file decodes into (package extsched re-exports them as
// aliases) and their validation. Tenants are addressed by name here;
// the runner resolves names to class IDs when it validates and runs a
// spec.

// Kind names a phase's traffic source.
type Kind string

const (
	// KindClosed is a fixed client population: each client submits,
	// waits, thinks, repeats (the paper's Section 3.1 closed system).
	KindClosed Kind = "closed"
	// KindOpen is a stationary Poisson arrival process at rate Lambda
	// (the paper's Section 3.2 open system).
	KindOpen Kind = "open"
	// KindRamp ramps the arrival rate linearly from Lambda to Lambda2
	// over the phase's duration — a load transition.
	KindRamp Kind = "ramp"
	// KindBurst is a two-state Markov-modulated Poisson process with
	// long-run mean rate Lambda — flash-crowd traffic.
	KindBurst Kind = "burst"
	// KindTrace replays a trace (Phase.Trace or Phase.TraceSynth).
	KindTrace Kind = "trace"
	// KindDiurnal is a non-homogeneous Poisson process whose rate
	// follows a sine around Lambda (DiurnalAmp / DiurnalPeriod) — the
	// day/night cycle of multi-tenant traffic. An optional flash-crowd
	// window (FlashFactor / FlashAt / FlashDuration) may overlay it.
	KindDiurnal Kind = "diurnal"
	// KindFlash is a stationary Poisson process at Lambda with one
	// flash-crowd window during which the rate multiplies by
	// FlashFactor; an optional diurnal sine may overlay it.
	KindFlash Kind = "flash"
)

// TenantSpec declares one tenant of a multi-tenant scenario. Listing
// tenants generalizes the historical two-class (high/low) vocabulary
// to N named classes: tenant i is assigned class ID i in list order,
// arrivals are drawn from the tenants' Shares instead of the stack's
// high-priority fraction, and per-class results carry the tenants'
// names. Events and the fairness controller address tenants by Name.
type TenantSpec struct {
	// Name labels the tenant in reports, snapshots and events.
	// Required, distinct across the block.
	Name string `json:"name"`
	// Weight is the tenant's relative share weight — the WFQ weight
	// under the "wfq" queue policy, and the fairness controller's
	// entitlement. 0 means 1.
	Weight float64 `json:"weight,omitempty"`
	// Share is the tenant's fraction of arrivals. Shares must each be
	// > 0 and sum to 1 across the block.
	Share float64 `json:"share"`
	// SLOTarget is the tenant's declared p95 response-time target in
	// seconds (0 = none). Advisory metadata: recorded in the tenant
	// registry for operators and future controllers.
	SLOTarget float64 `json:"slo_target,omitempty"`
	// SizeMean, when > 0, scales the tenant's transactions by a
	// lognormal multiplier with this mean and squared coefficient of
	// variation SizeC2 (SizeC2 0 = deterministic scaling). A
	// heavy-tailed multiplier (SizeC2 >> 1) gives the tenant the
	// occasional huge transaction of real multi-tenant traffic.
	SizeMean float64 `json:"size_mean,omitempty"`
	SizeC2   float64 `json:"size_c2,omitempty"`
}

// weight is the tenant's effective weight (0 means 1).
func (t TenantSpec) weight() float64 {
	if t.Weight == 0 {
		return 1
	}
	return t.Weight
}

// FairnessSpec configures the N-tenant weighted max-min fairness
// controller: it partitions the MPL across the tenant classes
// (work-conserving — idle slots are still lent across the partition)
// and steers the split so each tenant's weight-normalized attained
// service equalizes. Two invariants hold after every reaction: the
// per-tenant limits sum to the MPL, and every tenant keeps at least
// one slot — an aggressor can never capture the whole gate. Mutually
// exclusive at any instant with the feedback controller and the SLO
// controller (all three share the one metrics window).
type FairnessSpec struct {
	// Weights overrides the tenants' declared weights, keyed by tenant
	// name (or "high"/"low" without a tenants block; weights > 0). Nil
	// means "use the tenants block's weights".
	Weights map[string]float64 `json:"weights,omitempty"`
	// MinObservations gates fairness-window close (0 = 50
	// completions).
	MinObservations int `json:"min_observations,omitempty"`
	// Hysteresis is the imbalance ratio a busy donor must exceed
	// before a slot moves (0 = 1.2; otherwise >= 1).
	Hysteresis float64 `json:"hysteresis,omitempty"`
	// Strict makes the partition a hard cap: a tenant at its limit
	// never borrows idle capacity. Trades utilization for latency
	// isolation — under strict an overloaded tenant cannot keep the
	// backend saturated, so the others' in-DBMS times hold near their
	// uncontended levels. Default false (work-conserving borrowing).
	Strict bool `json:"strict,omitempty"`
}

// ControllerSpec configures the paper's Section 4.3 feedback
// controller when an Event enables it mid-scenario.
type ControllerSpec struct {
	// MaxThroughputLoss is the acceptable fractional throughput loss
	// versus the reference (e.g. 0.05 keeps 95%). Required.
	MaxThroughputLoss float64 `json:"max_throughput_loss"`
	// ReferenceThroughput is the no-MPL optimum in transactions per
	// second (measure it with an unlimited run, or model it with the
	// queueing models). Required.
	ReferenceThroughput float64 `json:"reference_throughput"`
	// MaxRTIncrease / ReferenceRT enable the optional response-time
	// criterion; zero values disable it.
	MaxRTIncrease float64 `json:"max_rt_increase,omitempty"`
	ReferenceRT   float64 `json:"reference_rt,omitempty"`
	// MinObservations gates observation-window close (0 = the paper's
	// 100 completions); HoldWindows is the convergence hold count
	// (0 = 2).
	MinObservations int `json:"min_observations,omitempty"`
	HoldWindows     int `json:"hold_windows,omitempty"`
	// StopOnConverge ends the scenario as soon as the controller
	// converges (the AutoTune workflow): the remaining phase time and
	// any later phases are skipped.
	StopOnConverge bool `json:"stop_on_converge,omitempty"`
}

// ShardSpeedEvent retargets one shard's relative CPU speed mid-run:
// model a replica slowing down (speed < 1), failing in slow motion
// (speed ≪ 1), or recovering (speed back to 1).
type ShardSpeedEvent struct {
	Shard int     `json:"shard"`
	Speed float64 `json:"speed"`
}

// SLOSpec configures the per-class latency-SLO controller: it
// partitions the MPL across the two priority classes (work-conserving
// — unused slots are lent across the partition) and steers the split
// so the protected class's response-time percentile stays at or below
// Target, leaving every remaining slot to the other class's
// throughput. Pair it with AdmitDeadline to shed un-startable work
// under overload; the partition shapes contention, the deadline bounds
// the backlog.
type SLOSpec struct {
	// Class is the protected class: "high" (default) or "low".
	Class string `json:"class,omitempty"`
	// Percentile is the controlled response-time percentile (0 = 95).
	Percentile float64 `json:"percentile,omitempty"`
	// Target is the latency bound in seconds. Required, > 0.
	Target float64 `json:"target"`
	// MinObservations gates the SLO observation window (0 = 50
	// completions, at least a tenth of them from the protected class).
	MinObservations int `json:"min_observations,omitempty"`
	// Margin is the give-back hysteresis: a slot returns to the other
	// class only while the measured percentile is below Margin×Target
	// (0 = 0.5).
	Margin float64 `json:"margin,omitempty"`
}

// protected resolves the protected class name ("" defaults to high —
// the protected class is almost always the high-priority one). The SLO
// loop is a two-class controller, so only "high" and "low" resolve.
func (s SLOSpec) protected() (core.Class, error) {
	switch s.Class {
	case "", "high":
		return core.ClassHigh, nil
	case "low":
		return core.ClassLow, nil
	default:
		return 0, fmt.Errorf("runner: unknown SLO class %q (want high or low)", s.Class)
	}
}

// ClassLimits is a static MPL partition: at most High high-class and
// Low low-class transactions dispatched concurrently (each >= 1), with
// work-conserving borrowing when one class has no waiting work. Both
// zero clears the partition.
type ClassLimits struct {
	High int `json:"high"`
	Low  int `json:"low"`
}

// byClass is the partition in SetTenantLimits form, keyed by class ID
// (empty = clear).
func (cl ClassLimits) byClass() map[core.Class]int {
	if cl.High == 0 && cl.Low == 0 {
		return map[core.Class]int{}
	}
	return map[core.Class]int{core.ClassHigh: cl.High, core.ClassLow: cl.Low}
}

// TenantLimits is a static per-tenant MPL partition, keyed by tenant
// name (see Event.SetTenantLimits). An empty map clears the partition.
type TenantLimits map[string]int

// AdmitDeadline sets per-class admission deadlines in seconds: a
// transaction that cannot START within its class's deadline of
// arriving is shed — rejected without executing, counted in the
// report's Shed — instead of queueing unboundedly. Zero disables a
// class's deadline.
type AdmitDeadline struct {
	High float64 `json:"high,omitempty"`
	Low  float64 `json:"low,omitempty"`
}

// Event is a mid-phase control action, applied At seconds after the
// phase's measured start (for the first phase: after warmup ends).
// Zero-valued action fields are skipped, so one Event can carry
// several actions at one instant. Which stack shapes each action runs
// on is decided by the capability table (Capabilities).
type Event struct {
	At float64 `json:"at"`
	// SetMPL changes the multiprogramming limit (0 = unlimited). On a
	// sharded system it is the cluster-wide limit, split across shards.
	SetMPL *int `json:"set_mpl,omitempty"`
	// SetWeights reweights the WFQ policy per tenant (by tenant name,
	// or "high"/"low" without a tenants block). The map replaces the
	// policy's weights: tenants absent from it fall back to weight 1.
	// Ignored when the policy is not WFQ.
	SetWeights map[string]float64 `json:"set_weights,omitempty"`
	// SetTenantLimits installs a static per-tenant MPL partition, by
	// tenant name: each listed tenant gets that many dedicated slots
	// (each >= 1, summing to at most the MPL), work-conserving. An
	// empty (but non-nil) map clears the partition — a pointer so the
	// clear form {} survives a marshal round trip.
	SetTenantLimits *TenantLimits `json:"set_tenant_limits,omitempty"`
	// SetTenantDeadlines changes per-tenant admission deadlines in
	// seconds, by tenant name (zero clears a tenant's deadline; tenants
	// absent from the map keep theirs). On a sharded system each shard
	// sheds against its own queue.
	SetTenantDeadlines map[string]float64 `json:"set_tenant_deadlines,omitempty"`
	// EnableFairness attaches (or replaces) the weighted max-min
	// fairness controller; DisableFairness detaches it, freezing the
	// tenant partition where the loop left it.
	EnableFairness  *FairnessSpec `json:"enable_fairness,omitempty"`
	DisableFairness bool          `json:"disable_fairness,omitempty"`
	// SetShardSpeed changes one shard's relative CPU speed.
	SetShardSpeed *ShardSpeedEvent `json:"set_shard_speed,omitempty"`
	// SetDispatch switches the cluster's dispatch policy ("rr", "jsq",
	// "lwl", "affinity", or the sampled "jsq-d"/"lwl-d" with an
	// optional width like "jsq-d:3") mid-run.
	SetDispatch string `json:"set_dispatch,omitempty"`
	// EnableController attaches the feedback controller to the
	// completion stream; DisableController detaches it, freezing the
	// MPL where the loop left it.
	EnableController  *ControllerSpec `json:"enable_controller,omitempty"`
	DisableController bool            `json:"disable_controller,omitempty"`
	// SetSLO attaches (or replaces) the latency-SLO controller;
	// DisableSLO detaches it, freezing the class partition where the
	// loop left it.
	SetSLO     *SLOSpec `json:"set_slo,omitempty"`
	DisableSLO bool     `json:"disable_slo,omitempty"`
	// SetClassLimits installs a static high/low MPL partition (high and
	// low both zero clears it): the two-class spelling of
	// SetTenantLimits.
	SetClassLimits *ClassLimits `json:"set_class_limits,omitempty"`
	// SetAdmitDeadline changes the high/low admission deadlines (zero
	// clears a class's deadline): the two-class spelling of
	// SetTenantDeadlines.
	SetAdmitDeadline *AdmitDeadline `json:"set_admit_deadline,omitempty"`
	// ShardFail crashes that shard: it goes down, survivors absorb its
	// MPL share, and the work it held goes to the stack's recovery
	// policy (resubmit with backoff, or shed).
	ShardFail *int `json:"shard_fail,omitempty"`
	// ShardRecover returns a down shard to service (or cancels a
	// drain).
	ShardRecover *int `json:"shard_recover,omitempty"`
	// ShardRemove drains that shard gracefully: no new work routes to
	// it and it leaves the fleet once empty.
	ShardRemove *int `json:"shard_remove,omitempty"`
	// ShardAdd joins a fresh shard (same workload and queue policy as
	// the rest of the fleet, nominal speed, seeded by its index).
	ShardAdd bool `json:"shard_add,omitempty"`
	// churn marks a generator-synthesized fail event, which is skipped
	// if it would take the last Up shard down.
	churn bool
}

// AutoscaleSpec arms the fleet autoscaler for the whole scenario: a
// hysteresis controller ticking every Interval simulated seconds from
// the first arrival, reading the mean per-up-shard backlog
// ((queued+inflight)/up shards) and growing or draining the shard
// fleet within [Min, Max]. Scale-ups reuse a parked (down or draining)
// shard first and only build a fresh one when every slot is serving;
// scale-downs drain the highest-index up shard.
type AutoscaleSpec struct {
	// Min / Max bound the serving fleet size (1 <= Min <= Max).
	Min int `json:"min"`
	Max int `json:"max"`
	// Interval is the controller tick period in simulated seconds
	// (0 = 1).
	Interval float64 `json:"interval,omitempty"`
	// HighWater / LowWater are the per-up-shard backlog watermarks:
	// at or above HighWater for BreachWindows consecutive ticks scales
	// up, at or below LowWater for CalmWindows ticks scales down, and
	// the band between them holds. Zeros default to HighWater 8 and
	// LowWater HighWater/4.
	HighWater float64 `json:"high_water,omitempty"`
	LowWater  float64 `json:"low_water,omitempty"`
	// BreachWindows / CalmWindows are the consecutive-tick thresholds
	// (0s = defaults: 2, and 3x BreachWindows — scaling down is
	// deliberately slower than scaling up).
	BreachWindows int `json:"breach_windows,omitempty"`
	CalmWindows   int `json:"calm_windows,omitempty"`
	// Cooldown is the minimum time between actions in simulated
	// seconds (0 = 2x Interval).
	Cooldown float64 `json:"cooldown,omitempty"`
	// MPLPerShard, when > 0, retargets the cluster-wide MPL to this
	// many slots per up shard after every fleet change, so admitted
	// concurrency scales with capacity.
	MPLPerShard int `json:"mpl_per_shard,omitempty"`
}

// config translates the spec to the controller's vocabulary.
func (a AutoscaleSpec) config() autoscale.Config {
	return autoscale.Config{
		Min:           a.Min,
		Max:           a.Max,
		Interval:      a.Interval,
		HighWater:     a.HighWater,
		LowWater:      a.LowWater,
		BreachWindows: a.BreachWindows,
		CalmWindows:   a.CalmWindows,
		Cooldown:      a.Cooldown,
	}
}

// Validate checks an autoscale spec without touching a stack.
func (a AutoscaleSpec) Validate() error {
	if a.MPLPerShard < 0 {
		return fmt.Errorf("runner: autoscale MPL per shard %d must be >= 0", a.MPLPerShard)
	}
	return a.config().Validate()
}

// ChurnSpec runs a deterministic MTBF/MTTR fault generator for one
// phase: each shard independently alternates exponential up times
// (mean MTBF) and down times (mean MTTR), from a seeded schedule that
// reruns bit-identically. A generated failure that would take the last
// up shard down is skipped, so the fleet never churns itself dark.
type ChurnSpec struct {
	// MTBF is the per-shard mean time between failures in simulated
	// seconds (> 0).
	MTBF float64 `json:"mtbf"`
	// MTTR is the per-shard mean time to recovery in simulated seconds
	// (> 0).
	MTTR float64 `json:"mttr"`
	// Seed drives the failure schedule (0 = the stack seed).
	Seed uint64 `json:"seed,omitempty"`
}

// Validate checks a churn generator's parameters.
func (c ChurnSpec) Validate() error {
	if !finite(c.MTBF, c.MTTR) {
		return fmt.Errorf("runner: churn MTBF/MTTR must be finite")
	}
	if c.MTBF <= 0 {
		return fmt.Errorf("runner: churn MTBF %v must be positive", c.MTBF)
	}
	if c.MTTR <= 0 {
		return fmt.Errorf("runner: churn MTTR %v must be positive", c.MTTR)
	}
	return nil
}

// Phase is one segment of a scenario: a traffic source run for
// Duration simulated seconds, with optional mid-phase control events.
// Which parameter fields apply depends on Kind; the rest are ignored.
type Phase struct {
	// Name labels the phase in reports and snapshots (default: Kind).
	Name string `json:"name,omitempty"`
	// Kind is one of KindClosed, KindOpen, KindRamp, KindBurst,
	// KindTrace, KindDiurnal, KindFlash.
	Kind Kind `json:"kind"`
	// Duration is the phase length in simulated seconds (>= 0). A
	// zero-duration phase starts and stops its traffic source at a
	// single instant — useful to inject a one-shot burst of closed
	// clients whose transactions drain into the next phase.
	Duration float64 `json:"duration"`
	// Clients is the closed population (0 = 100, the paper's choice);
	// ThinkTime the mean exponential think time in seconds (0 = none).
	Clients   int     `json:"clients,omitempty"`
	ThinkTime float64 `json:"think_time,omitempty"`
	// Lambda is the arrival rate in transactions/second for open,
	// burst, diurnal and flash phases, and the starting rate of a ramp;
	// Lambda2 is the ramp's ending rate.
	Lambda  float64 `json:"lambda,omitempty"`
	Lambda2 float64 `json:"lambda2,omitempty"`
	// BurstFactor / BurstPeriod shape a burst phase: the on/off state
	// rates differ by Factor², normalized so the long-run mean stays at
	// Lambda; state sojourns are exponential with mean Period seconds
	// (0s = defaults: factor 2, period 100 mean interarrivals).
	BurstFactor float64 `json:"burst_factor,omitempty"`
	BurstPeriod float64 `json:"burst_period,omitempty"`
	// DiurnalAmp / DiurnalPeriod shape a diurnal phase: the rate
	// follows Lambda·(1 + Amp·sin(2πt/Period)), amplitude in (0,1],
	// period in seconds. Required for KindDiurnal; optional overlay on
	// KindFlash.
	DiurnalAmp    float64 `json:"diurnal_amp,omitempty"`
	DiurnalPeriod float64 `json:"diurnal_period,omitempty"`
	// FlashFactor / FlashAt / FlashDuration shape a flash crowd: for
	// FlashDuration seconds starting FlashAt seconds into the phase,
	// the rate multiplies by FlashFactor (>= 1). Required for
	// KindFlash; optional overlay on KindDiurnal.
	FlashFactor   float64 `json:"flash_factor,omitempty"`
	FlashAt       float64 `json:"flash_at,omitempty"`
	FlashDuration float64 `json:"flash_duration,omitempty"`
	// Trace embeds a trace to replay; TraceSynth synthesizes one
	// instead (exactly one of the two for a trace phase), once per Run.
	// TraceSpeedup divides the trace's inter-arrival gaps (0 = 1).
	Trace        *trace.Trace       `json:"trace,omitempty"`
	TraceSynth   *trace.SynthConfig `json:"trace_synth,omitempty"`
	TraceSpeedup float64            `json:"trace_speedup,omitempty"`
	// Churn, when non-nil, runs the MTBF/MTTR fault generator for this
	// phase; the generated fail/recover events merge with Events.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Events are mid-phase control actions.
	Events []Event `json:"events,omitempty"`
}

// label returns the phase's display name.
func (p Phase) label() string {
	if p.Name != "" {
		return p.Name
	}
	return string(p.Kind)
}

// Spec is a declarative description of one experiment: a warmup, then
// an ordered list of traffic phases with mid-phase control events.
type Spec struct {
	// Name labels the scenario in output files (unused by the engine).
	Name string `json:"name,omitempty"`
	// Warmup is discarded simulated seconds driven by the first
	// phase's traffic source before the measurement window opens.
	Warmup float64 `json:"warmup,omitempty"`
	// SampleInterval, when > 0, streams one windowed metrics.Snapshot
	// to every observer each interval (counters cover the interval).
	SampleInterval float64 `json:"sample_interval,omitempty"`
	// Tenants declares an N-tenant workload: tenant i gets class ID i,
	// arrivals are split by the tenants' Shares (replacing the stack's
	// high-priority tagging), and per-tenant results appear under the
	// tenants' names. At least two tenants when present.
	Tenants []TenantSpec `json:"tenants,omitempty"`
	// Fairness, when non-nil, runs the whole scenario under the
	// weighted max-min fairness controller from the moment the
	// measurement window opens (an event-free way to arm it;
	// enable_fairness events can still replace it). Requires a tenants
	// block.
	Fairness *FairnessSpec `json:"fairness,omitempty"`
	// Autoscale, when non-nil, arms the fleet autoscaler for the whole
	// run.
	Autoscale *AutoscaleSpec `json:"autoscale,omitempty"`
	// ParallelShards, when true, runs each shard's frontend+backend
	// pair on its own simulation engine in its own goroutine,
	// synchronized conservatively at the dispatcher boundary. The run
	// is deterministic and produces the same outcome (and snapshots) as
	// the sequential engine for the same seed. Unsharded stacks have
	// only one engine to run, so the knob changes nothing there beyond
	// the capability table's restrictions.
	ParallelShards bool    `json:"parallel_shards,omitempty"`
	Phases         []Phase `json:"phases"`
}

// finite reports whether every value is a finite float — the
// executor schedules events at these offsets, and the engine (rightly)
// panics on NaN/Inf times, so Validate must reject them first. JSON
// cannot encode non-finite numbers, but scenarios built in code can.
func finite(vals ...float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// maxTenants bounds a tenants block. The limit keeps every tenant's
// dedicated percentile-reservoir RNG stream distinct (streams are
// spaced by class ID masked to 16 bits).
const maxTenants = 1 << 15

// classIndex resolves tenant names to class IDs: list position in the
// tenants block when the spec has one, else the historical two-class
// names "high" and "low".
type classIndex struct {
	ids     map[string]core.Class
	tenants bool
}

var twoClassIDs = map[string]core.Class{"high": core.ClassHigh, "low": core.ClassLow}

// classIndex validates the tenants block's fields and indexes it.
func (s Spec) classIndex() (classIndex, error) {
	if len(s.Tenants) == 0 {
		return classIndex{ids: twoClassIDs}, nil
	}
	if len(s.Tenants) < 2 {
		return classIndex{}, fmt.Errorf("runner: a tenants block needs >= 2 tenants, have %d", len(s.Tenants))
	}
	if len(s.Tenants) > maxTenants {
		return classIndex{}, fmt.Errorf("runner: %d tenants exceeds the %d limit", len(s.Tenants), maxTenants)
	}
	x := classIndex{ids: make(map[string]core.Class, len(s.Tenants)), tenants: true}
	total := 0.0
	for i, t := range s.Tenants {
		if t.Name == "" {
			return classIndex{}, fmt.Errorf("runner: tenant %d: name is required", i)
		}
		if _, dup := x.ids[t.Name]; dup {
			return classIndex{}, fmt.Errorf("runner: duplicate tenant name %q", t.Name)
		}
		x.ids[t.Name] = core.Class(i)
		if t.Weight < 0 || !finite(t.Weight) {
			return classIndex{}, fmt.Errorf("runner: tenant %q weight %v must be >= 0 (0 = 1)", t.Name, t.Weight)
		}
		if t.Share <= 0 || !finite(t.Share) {
			return classIndex{}, fmt.Errorf("runner: tenant %q share %v must be > 0", t.Name, t.Share)
		}
		if t.SLOTarget < 0 || !finite(t.SLOTarget) {
			return classIndex{}, fmt.Errorf("runner: tenant %q slo_target %v must be >= 0", t.Name, t.SLOTarget)
		}
		if t.SizeMean < 0 || t.SizeC2 < 0 || !finite(t.SizeMean, t.SizeC2) {
			return classIndex{}, fmt.Errorf("runner: tenant %q size dist (mean %v, c2 %v) must be >= 0", t.Name, t.SizeMean, t.SizeC2)
		}
		total += t.Share
	}
	if total < 0.999 || total > 1.001 {
		return classIndex{}, fmt.Errorf("runner: tenant shares sum to %v, want 1", total)
	}
	return x, nil
}

func (x classIndex) of(name string) (core.Class, error) {
	if c, ok := x.ids[name]; ok {
		return c, nil
	}
	if x.tenants {
		return 0, fmt.Errorf("unknown tenant %q (not in the tenants block)", name)
	}
	return 0, fmt.Errorf("unknown class %q (want high or low without a tenants block)", name)
}

// byClass re-keys a name-keyed event map by class ID.
func byClass[V any](x classIndex, m map[string]V) (map[core.Class]V, error) {
	out := make(map[core.Class]V, len(m))
	for name, v := range m {
		c, err := x.of(name)
		if err != nil {
			return nil, err
		}
		out[c] = v
	}
	return out, nil
}

// fairnessConfig resolves a fairness spec against the tenants block:
// every tenant is governed at its declared weight, with Weights
// overriding by name.
func (s Spec) fairnessConfig(x classIndex, fs FairnessSpec) (fairness.Config, error) {
	w := make(map[core.Class]float64, len(s.Tenants)+len(fs.Weights))
	for i, t := range s.Tenants {
		w[core.Class(i)] = t.weight()
	}
	for name, v := range fs.Weights {
		c, err := x.of(name)
		if err != nil {
			return fairness.Config{}, err
		}
		w[c] = v
	}
	cfg := fairness.Config{
		Weights:         w,
		MinObservations: fs.MinObservations,
		Hysteresis:      fs.Hysteresis,
		Strict:          fs.Strict,
	}
	return cfg, cfg.Validate()
}

// Validate checks the spec's shape without touching a stack or
// synthesizing any trace: phase kinds and parameters, tenant names,
// event arguments, and the capability table's stack-independent rows
// (features refused under parallel_shards). CheckStack adds the rows
// that depend on the stack's shard count.
func (s Spec) Validate() error {
	if len(s.Phases) == 0 {
		return fmt.Errorf("runner: scenario has no phases")
	}
	if s.Warmup < 0 || !finite(s.Warmup) {
		return fmt.Errorf("runner: warmup %v must be finite and >= 0", s.Warmup)
	}
	if s.SampleInterval < 0 || !finite(s.SampleInterval) {
		return fmt.Errorf("runner: sample interval %v must be finite and >= 0", s.SampleInterval)
	}
	x, err := s.classIndex()
	if err != nil {
		return err
	}
	if fs := s.Fairness; fs != nil {
		if len(s.Tenants) == 0 {
			return fmt.Errorf("runner: scenario-level fairness needs a tenants block (events can pass explicit weights instead)")
		}
		if _, err := s.fairnessConfig(x, *fs); err != nil {
			return fmt.Errorf("runner: fairness: %w", err)
		}
	}
	if s.Autoscale != nil {
		if err := s.Autoscale.Validate(); err != nil {
			return err
		}
	}
	for i, ph := range s.Phases {
		prefix := fmt.Sprintf("runner: phase %d (%s)", i, ph.label())
		if err := ph.validate(); err != nil {
			return fmt.Errorf("%s: %w", prefix, err)
		}
		for j, ev := range ph.Events {
			if err := s.validateEvent(x, ev); err != nil {
				return fmt.Errorf("%s event %d: %w", prefix, j, err)
			}
		}
	}
	return s.checkShape(shape{parallel: s.ParallelShards})
}

// validate checks one phase's traffic parameters and churn spec.
func (ph Phase) validate() error {
	if !finite(ph.Duration, ph.ThinkTime, ph.Lambda, ph.Lambda2, ph.BurstFactor, ph.BurstPeriod, ph.TraceSpeedup,
		ph.DiurnalAmp, ph.DiurnalPeriod, ph.FlashFactor, ph.FlashAt, ph.FlashDuration) {
		return fmt.Errorf("parameters must be finite")
	}
	if ph.Duration < 0 {
		return fmt.Errorf("duration %v must be >= 0", ph.Duration)
	}
	switch ph.Kind {
	case KindClosed:
		if ph.Clients < 0 {
			return fmt.Errorf("clients %d must be >= 0", ph.Clients)
		}
		if ph.ThinkTime < 0 {
			return fmt.Errorf("think time %v must be >= 0", ph.ThinkTime)
		}
	case KindOpen:
		if ph.Lambda <= 0 {
			return fmt.Errorf("lambda %v must be positive", ph.Lambda)
		}
	case KindRamp:
		if ph.Lambda < 0 || ph.Lambda2 < 0 || (ph.Lambda == 0 && ph.Lambda2 == 0) {
			return fmt.Errorf("ramp rates %v -> %v must be >= 0 with a positive peak", ph.Lambda, ph.Lambda2)
		}
		if ph.Duration <= 0 {
			return fmt.Errorf("a ramp needs a positive duration")
		}
	case KindBurst:
		if ph.Lambda <= 0 {
			return fmt.Errorf("lambda %v must be positive", ph.Lambda)
		}
		if ph.BurstFactor < 0 || (ph.BurstFactor > 0 && ph.BurstFactor < 1) {
			return fmt.Errorf("burst factor %v must be >= 1 (0 = default)", ph.BurstFactor)
		}
		if ph.BurstPeriod < 0 {
			return fmt.Errorf("burst period %v must be >= 0 (0 = default)", ph.BurstPeriod)
		}
	case KindTrace:
		switch {
		case ph.Trace != nil && ph.TraceSynth != nil:
			return fmt.Errorf("set either Trace or TraceSynth, not both")
		case ph.TraceSynth != nil:
			if err := ph.TraceSynth.Validate(); err != nil {
				return err
			}
		case ph.Trace == nil || ph.Trace.Len() == 0:
			return fmt.Errorf("a trace phase needs a non-empty trace")
		default:
			if err := ph.Trace.Validate(); err != nil {
				return err
			}
		}
		if ph.TraceSpeedup < 0 {
			return fmt.Errorf("trace speedup %v must be >= 0 (0 = 1)", ph.TraceSpeedup)
		}
	case KindDiurnal:
		if ph.Lambda <= 0 {
			return fmt.Errorf("lambda %v must be positive", ph.Lambda)
		}
		if ph.DiurnalAmp <= 0 || ph.DiurnalAmp > 1 {
			return fmt.Errorf("diurnal amplitude %v must be in (0,1]", ph.DiurnalAmp)
		}
		if ph.DiurnalPeriod <= 0 {
			return fmt.Errorf("diurnal period %v must be positive", ph.DiurnalPeriod)
		}
		if ph.FlashFactor != 0 && ph.FlashFactor < 1 {
			return fmt.Errorf("flash factor %v must be >= 1 (0 = none)", ph.FlashFactor)
		}
		if ph.FlashAt < 0 || ph.FlashDuration < 0 {
			return fmt.Errorf("flash window [%v, +%v) must be >= 0", ph.FlashAt, ph.FlashDuration)
		}
	case KindFlash:
		if ph.Lambda <= 0 {
			return fmt.Errorf("lambda %v must be positive", ph.Lambda)
		}
		if ph.FlashFactor < 1 {
			return fmt.Errorf("flash factor %v must be >= 1", ph.FlashFactor)
		}
		if ph.FlashAt < 0 || ph.FlashDuration <= 0 {
			return fmt.Errorf("flash window [%v, +%v) needs a positive duration and offset >= 0", ph.FlashAt, ph.FlashDuration)
		}
		if ph.DiurnalAmp != 0 {
			if ph.DiurnalAmp < 0 || ph.DiurnalAmp > 1 {
				return fmt.Errorf("diurnal amplitude %v must be in (0,1] (0 = none)", ph.DiurnalAmp)
			}
			if ph.DiurnalPeriod <= 0 {
				return fmt.Errorf("diurnal period %v must be positive", ph.DiurnalPeriod)
			}
		}
	default:
		return fmt.Errorf("unknown kind %q (want %s, %s, %s, %s, %s, %s or %s)",
			ph.Kind, KindClosed, KindOpen, KindRamp, KindBurst, KindTrace, KindDiurnal, KindFlash)
	}
	if ph.Churn != nil {
		return ph.Churn.Validate()
	}
	return nil
}

// validateEvent checks one event's arguments, resolving its tenant
// names against x.
func (s Spec) validateEvent(x classIndex, ev Event) error {
	if ev.At < 0 || !finite(ev.At) {
		return fmt.Errorf("offset %v must be finite and >= 0", ev.At)
	}
	if ev.SetMPL != nil && *ev.SetMPL < 0 {
		return fmt.Errorf("MPL %d must be >= 0", *ev.SetMPL)
	}
	if err := checkByName(x, "set_weights", ev.SetWeights, "a positive WFQ weight",
		func(w float64) bool { return w > 0 && finite(w) }); err != nil {
		return err
	}
	if tl := ev.SetTenantLimits; tl != nil {
		if err := checkByName(x, "set_tenant_limits", *tl, "a limit >= 1", func(l int) bool { return l >= 1 }); err != nil {
			return err
		}
	}
	if err := checkByName(x, "set_tenant_deadlines", ev.SetTenantDeadlines, "a finite admit deadline >= 0",
		func(d float64) bool { return d >= 0 && finite(d) }); err != nil {
		return err
	}
	if fs := ev.EnableFairness; fs != nil {
		if _, err := s.fairnessConfig(x, *fs); err != nil {
			return fmt.Errorf("enable_fairness: %w", err)
		}
	}
	if ss := ev.SetShardSpeed; ss != nil {
		if ss.Shard < 0 {
			return fmt.Errorf("shard %d must be >= 0", ss.Shard)
		}
		if ss.Speed <= 0 || !finite(ss.Speed) {
			return fmt.Errorf("shard speed %v must be positive", ss.Speed)
		}
	}
	if ev.SetDispatch != "" {
		if _, err := cluster.NewPolicy(ev.SetDispatch); err != nil {
			return err
		}
	}
	if cs := ev.EnableController; cs != nil {
		if cs.MaxThroughputLoss < 0 || cs.MaxThroughputLoss >= 1 {
			return fmt.Errorf("MaxThroughputLoss %v outside [0,1)", cs.MaxThroughputLoss)
		}
		if cs.ReferenceThroughput <= 0 {
			return fmt.Errorf("ReferenceThroughput required")
		}
	}
	if ev.SetSLO != nil {
		if err := ev.SetSLO.Validate(); err != nil {
			return err
		}
	}
	if cl := ev.SetClassLimits; cl != nil {
		if err := cl.Validate(); err != nil {
			return err
		}
	}
	if ad := ev.SetAdmitDeadline; ad != nil {
		if err := ad.Validate(); err != nil {
			return err
		}
	}
	for _, sh := range ev.shardTargets() {
		if sh.idx != nil && *sh.idx < 0 {
			return fmt.Errorf("%s shard %d must be >= 0", sh.key, *sh.idx)
		}
	}
	return nil
}

// checkByName vets a name-keyed event map: every name must resolve
// against x and every value satisfy ok.
func checkByName[V any](x classIndex, key string, m map[string]V, want string, ok func(V) bool) error {
	for name, v := range m {
		if _, err := x.of(name); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		if !ok(v) {
			return fmt.Errorf("%s: %q has %v, want %s", key, name, v, want)
		}
	}
	return nil
}

// shardTarget is one shard-indexed lifecycle action of an event.
type shardTarget struct {
	key string
	idx *int
}

func (ev Event) shardTargets() [3]shardTarget {
	return [3]shardTarget{
		{"shard_fail", ev.ShardFail},
		{"shard_recover", ev.ShardRecover},
		{"shard_remove", ev.ShardRemove},
	}
}

// Validate checks an SLOSpec's standalone fields.
func (s SLOSpec) Validate() error {
	if _, err := s.protected(); err != nil {
		return err
	}
	if !finite(s.Target, s.Percentile, s.Margin) {
		return fmt.Errorf("runner: SLO parameters must be finite")
	}
	if s.Target <= 0 {
		return fmt.Errorf("runner: SLO target %v must be positive seconds", s.Target)
	}
	if s.Percentile < 0 || s.Percentile >= 100 {
		return fmt.Errorf("runner: SLO percentile %v outside [0,100) (0 = 95)", s.Percentile)
	}
	if s.Margin < 0 || s.Margin >= 1 {
		return fmt.Errorf("runner: SLO margin %v outside [0,1) (0 = 0.5)", s.Margin)
	}
	if s.MinObservations < 0 {
		return fmt.Errorf("runner: SLO MinObservations %d must be >= 0", s.MinObservations)
	}
	return nil
}

// Validate checks a ClassLimits partition: both limits >= 1, or both
// zero (clear).
func (cl ClassLimits) Validate() error {
	if cl.High == 0 && cl.Low == 0 {
		return nil
	}
	if cl.High < 1 || cl.Low < 1 {
		return fmt.Errorf("runner: class limits high=%d low=%d must both be >= 1 (or both 0 to clear)", cl.High, cl.Low)
	}
	return nil
}

// Validate checks admission deadlines: finite, >= 0.
func (ad AdmitDeadline) Validate() error {
	if !finite(ad.High, ad.Low) || ad.High < 0 || ad.Low < 0 {
		return fmt.Errorf("runner: admit deadlines high=%v low=%v must be finite and >= 0", ad.High, ad.Low)
	}
	return nil
}

// byClass is the deadlines in SetTenantDeadlines form, keyed by class
// ID (both classes listed, so a zero clears that class's deadline).
func (ad AdmitDeadline) byClass() map[core.Class]float64 {
	return map[core.Class]float64{core.ClassHigh: ad.High, core.ClassLow: ad.Low}
}

// withTraces returns the spec with every TraceSynth phase's trace
// synthesized, leaving the caller's spec untouched: Validate only
// vets the synthesis config, so a run pays the generation cost exactly
// once.
func (s Spec) withTraces() (Spec, error) {
	var phases []Phase
	for i, ph := range s.Phases {
		if ph.Kind != KindTrace || ph.TraceSynth == nil {
			continue
		}
		if phases == nil {
			phases = append([]Phase(nil), s.Phases...)
		}
		tr, err := trace.Synthesize(*ph.TraceSynth)
		if err != nil {
			return Spec{}, fmt.Errorf("runner: phase %d: %w", i, err)
		}
		phases[i].Trace, phases[i].TraceSynth = tr, nil
	}
	if phases != nil {
		s.Phases = phases
	}
	return s, nil
}
