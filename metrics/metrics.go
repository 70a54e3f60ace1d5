// Package metrics defines the shared measurement vocabulary of the
// repository: one Snapshot type that both the discrete-event simulator
// (extsched.System running a Scenario) and the wall-clock live gate
// (package gate) emit, and the Observer interface through which callers
// stream those snapshots during a run.
//
// Keeping the type here — below the two frontends, above the internal
// machinery — is what makes sim-vs-live comparisons mechanical: a
// dashboard, a regression harness, or a tuning script consumes the same
// fields whether they came from simulated seconds or real ones. Fields
// that only one side can populate (device utilizations exist only in
// the simulator; Errors only in the live gate) are simply zero on the
// other side.
package metrics

// Snapshot is a point-in-time view of an external-scheduling frontend:
// the gate state at the snapshot instant plus the completion metrics of
// the measurement window that produced it.
//
// Two window conventions are in use, and Window tells them apart:
// streaming observers (Scenario runs, Gate.Watch) emit per-interval
// snapshots whose counters cover only the Window seconds since the
// previous snapshot, while Gate.Stats returns a cumulative snapshot
// covering the whole current metrics window. Lifetime counters
// (Dropped, Canceled, Errors) follow the same rule: deltas in interval
// snapshots, totals in cumulative ones.
type Snapshot struct {
	// Time is the snapshot instant in seconds since the run (or gate)
	// epoch — simulated seconds for the simulator, wall seconds live.
	Time float64
	// Window is the length in seconds of the measurement window the
	// completion metrics below cover.
	Window float64
	// Phase names the scenario phase the snapshot was taken in (empty
	// for live gates and single-phase runs without names).
	Phase string

	// Limit is the MPL at the snapshot instant (0 = unlimited);
	// Inflight the number of admitted, uncompleted items; Queued the
	// external queue length.
	Limit, Inflight, Queued int

	// Completed counts completions in the window; Throughput is
	// Completed per second over the window.
	Completed  uint64
	Throughput float64

	// MeanResponse is the mean seconds from submission to completion
	// (external queueing included — the paper's definition); MeanWait
	// the external-queue portion; MeanInside the portion spent inside
	// the backend.
	MeanResponse, MeanWait, MeanInside float64

	// P50/P95/P99 are response-time percentiles. They are populated
	// only when percentile sampling is enabled, and — because the
	// sampling reservoir spans the whole run — they always cover the
	// run so far, not the interval window.
	P50, P95, P99 float64

	// Dropped counts admission-control rejections, Canceled withdrawn
	// submissions, Errors failed completions (live gate Result.Err).
	Dropped, Canceled, Errors uint64
	// Shed counts deadline-missed rejections: work that could not be
	// dispatched by its per-class admission deadline and was rejected
	// without executing (gate.ErrDeadline live; scenario admit-deadline
	// events simulated). Per-class shares live in Classes. Window
	// conventions follow Dropped: deltas in interval snapshots,
	// totals in cumulative ones.
	Shed uint64
	// Restarts counts internal retry cycles (deadlock aborts in the
	// simulated DBMS).
	Restarts uint64

	// Failed counts transactions terminally lost to backend failures:
	// work a dead shard held that the recovery policy shed (or whose
	// retry budget ran out), plus submissions that found no live
	// backend. Resubmitted counts logical transactions re-routed to a
	// survivor at least once after a failure; Retries counts individual
	// resubmission events (a txn bounced through two failures counts
	// twice). All three follow the Dropped window conventions: deltas
	// in interval snapshots, totals in cumulative ones.
	Failed, Resubmitted, Retries uint64

	// CPUUtil / DiskUtil are the simulated device utilizations over the
	// window (zero for live gates, which cannot see their backend).
	CPUUtil, DiskUtil float64

	// FleetSize is the total number of shard slots (including draining
	// and down members) and FleetUp the number currently serving, both
	// at the snapshot instant. Zero for single-backend runs and plain
	// live gates. ScaleUps / ScaleDowns count autoscaler actions and
	// follow the Dropped window conventions: deltas in interval
	// snapshots, totals in cumulative ones. All four stay zero when no
	// autoscaler is armed (FleetSize/FleetUp still report for any
	// sharded frontend).
	FleetSize, FleetUp   int
	ScaleUps, ScaleDowns uint64

	// Classes carries per-class (per-tenant) completion stats, in
	// ascending class-ID order; Class looks one up by ID. Like Shards
	// it is elided above a cardinality threshold (see the runner), so
	// per-snapshot memory stays bounded at hundreds of tenants; the
	// aggregate fields above remain populated.
	Classes []ClassStat

	// Shards carries per-member state when the frontend is a sharded
	// cluster, in shard-index order. It is nil for single-backend runs
	// and plain live gates — and also elided above a fleet-size
	// threshold (see the runner), so that per-snapshot memory stays
	// bounded at N>=1000; the aggregate fields above remain populated.
	Shards []ShardStat
}

// ClassStat is one priority class's (tenant's) slice of a Snapshot.
// Completed, Shed and Mean follow the enclosing Snapshot's window
// convention; P95 needs percentile sampling and covers the run so far
// (like the Snapshot's own percentiles).
type ClassStat struct {
	// Class is the small-integer class ID; Name is the registered
	// tenant name (empty when no tenant registry is attached).
	Class int
	Name  string
	// Completed counts the class's completions; Shed its deadline-shed
	// rejections.
	Completed, Shed uint64
	// Mean is the class's mean response time in seconds; P95 its 95th
	// response-time percentile (0 unless percentile sampling is on).
	Mean, P95 float64
}

// Class returns the entry for class ID id (the zero entry, with Class
// set, when the class neither completed nor shed work nor was sampled).
func (s Snapshot) Class(id int) ClassStat {
	for _, c := range s.Classes {
		if c.Class == id {
			return c
		}
	}
	return ClassStat{Class: id}
}

// ShardStat is one dispatch member's slice of a Snapshot: instantaneous
// gate state plus the member's share of the window's traffic.
// Dispatched and Completed follow the enclosing Snapshot's window
// convention: deltas in interval snapshots (Scenario streaming),
// totals in cumulative ones (gate Pool.Stats, where Dispatched is a
// lifetime count like Dropped/Canceled).
type ShardStat struct {
	// Shard is the member index.
	Shard int
	// Speed is the member's relative service speed at the snapshot
	// instant (1 = nominal).
	Speed float64
	// Limit, Inflight and Queued mirror the Snapshot fields for this
	// member alone.
	Limit, Inflight, Queued int
	// Dispatched counts arrivals routed to the member; Completed counts
	// the member's completions.
	Dispatched, Completed uint64
	// CPUUtil / DiskUtil are the member's simulated device utilizations
	// over the window.
	CPUUtil, DiskUtil float64
	// State is the member's lifecycle state at the snapshot instant
	// ("up", "draining", "down"; empty when the frontend has no
	// lifecycle — plain live gates, unsharded runs).
	State string
	// Availability is the fraction of the window the member was
	// serving (1 when the fault model is not armed). Like the traffic
	// counters it follows the enclosing Snapshot's window convention.
	Availability float64
}

// Observer receives streamed snapshots during a run. OnInterval is
// called once per sample interval, in time order. Simulator runs call
// it synchronously on the simulation goroutine, so implementations may
// read (and adjust) the running system from inside the callback; live
// gates call it from a timer goroutine, so implementations must be safe
// for that.
type Observer interface {
	OnInterval(Snapshot)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Snapshot)

// OnInterval calls f(s).
func (f ObserverFunc) OnInterval(s Snapshot) { f(s) }

// Collector is an Observer that appends every snapshot it receives —
// the simplest way to capture a run's time series for later assertion
// or plotting. Not safe for concurrent use; pair it with the simulator
// (which observes synchronously) or add locking for live gates.
type Collector struct {
	Snapshots []Snapshot
}

// OnInterval appends s.
func (c *Collector) OnInterval(s Snapshot) {
	c.Snapshots = append(c.Snapshots, s)
}
