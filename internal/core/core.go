// Package core implements the paper's central mechanism: external
// scheduling of work through an MPL gate (Fig. 1).
//
// A Frontend admits at most MPL work items into a Backend at a time;
// the rest wait in an external queue that a pluggable Policy orders
// (FIFO by default, Priority for the Section 5 experiments, SJF and WFQ
// as the "custom-tailored policy" extensions the paper motivates).
// Response time is measured the paper's way: from arrival at the
// frontend to completion, including external queueing. The MPL can be
// changed at any time (SetMPL), which is how the feedback controller
// drives the system.
//
// The frontend is backend-agnostic — the whole point of external
// scheduling is that it needs nothing from the system it wraps beyond
// "start this" and "tell me when it finished". The simulated DBMS
// (internal/dbfe) and the wall-clock live gate (the top-level gate
// package) are the two backends; both share this one gate, queue, and
// metrics implementation. Time comes from a sim.Clock, so the same
// code runs in deterministic virtual time and against real traffic.
//
// All frontend entry points are safe for concurrent callers.
//
// # Fast path vs slow path
//
// The frontend keeps its gate state — the inside count, the MPL limit,
// and a "slow" flag — packed into one atomic word. An admission that
// finds the slow flag clear and a free slot claims it with a single
// CAS, and a completion that finds the flag clear frees its slot the
// same way: neither takes the mutex, queues, or allocates. The slow
// flag is set (only ever under the mutex) whenever anything that needs
// the mutex's ordering is in play: items waiting in the policy queue
// or a deferred ring, a class-limit partition, or a per-class admit
// deadline (tracked separately). Because the flag lives in the same
// word as the counters, every fast-path CAS validates it for free: a
// concurrent transition to slow invalidates in-flight fast CASes, and
// the slow path always re-dispatches under the mutex after setting the
// flag, so a released slot is never lost to a waiter. Items with a
// pre-set Deadline or a class outside the small tracked range also
// take the slow path.
//
// Under the single-threaded simulator the fast path makes the same
// state transitions in the same order as the mutex path did, so the
// deterministic event order (and every same-seed fingerprint) is
// preserved exactly.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"extsched/internal/sim"
	"extsched/internal/stats"
)

// Class is a small-integer priority class. ClassHigh receives strict
// preference under PriorityPolicy; every other value is treated as
// "low". WFQ accepts arbitrary Class values, one virtual queue per
// distinct class.
type Class int

const (
	// ClassLow is the default (background) class.
	ClassLow Class = 0
	// ClassHigh is the preferred class of the paper's Section 5
	// prioritization experiments.
	ClassHigh Class = 1
)

// itemState tracks an item through the gate.
type itemState uint8

const (
	itemIdle itemState = iota
	itemQueued
	itemDispatched
	itemDone
	itemCanceled
	itemShed
	itemFailed
)

// Item is one unit of admitted work flowing through the frontend: a
// simulated transaction, a live HTTP request, anything the backend can
// execute. Callers allocate it (usually embedded in their own record),
// fill Class/SizeHint/Payload, and hand it to Submit. The frontend owns
// it until completion.
type Item struct {
	// Class is the external scheduling priority class.
	Class Class
	// SizeHint is the caller's a-priori estimate of the item's total
	// service demand in seconds. SJF orders by it and WFQ charges by
	// it; zero means unknown (WFQ then charges unit cost).
	SizeHint float64
	// Payload carries the caller's per-item context (the simulated
	// transaction profile, a live request ticket). The frontend never
	// touches it. Storing a pointer here does not allocate.
	Payload any
	// Arrival, Dispatch and Complete are clock timestamps stamped by
	// the frontend: Submit time, admission time, and completion time.
	// For a shed item, Complete is the shed instant and Dispatch stays 0.
	Arrival, Dispatch, Complete float64
	// Deadline is the absolute latest clock time by which the item must
	// START (be dispatched); 0 means none. Submit stamps it from the
	// frontend's per-class admit deadlines when the caller left it zero;
	// callers may pre-set an absolute deadline instead. An item that
	// cannot start by its deadline is shed: it never executes, its done
	// callback and the OnShed hook fire, and it is counted in Shed —
	// not in the completion metrics.
	Deadline float64
	// Outcome is the backend's completion report.
	Outcome Outcome
	seq     uint64
	state   itemState
	done    func(*Item)
}

// ResponseTime is Complete − Arrival (external wait + inside time).
func (it *Item) ResponseTime() float64 { return it.Complete - it.Arrival }

// WasShed reports whether the item was rejected by deadline shedding
// instead of completing. Valid from the item's done callback (which
// fires for sheds as well as completions) onward; not synchronized, so
// do not call it while the item may still be queued.
func (it *Item) WasShed() bool { return it.state == itemShed }

// WasFailed reports whether the item was lost to a backend failure
// (FailQueued/FailDispatched) instead of completing. Same validity
// caveats as WasShed.
func (it *Item) WasFailed() bool { return it.state == itemFailed }

// MarkFailed force-marks an item as failed. For items a frontend does
// NOT currently own: work that could not be routed anywhere (the
// cluster dispatcher with every shard down) or that was already
// withdrawn by FailQueued/FailDispatched and is now being declared
// terminally lost. Never call it on a queued or dispatched item — the
// owning frontend's accounting would be corrupted.
func (it *Item) MarkFailed() { it.state = itemFailed }

// ExternalWait is Dispatch − Arrival.
func (it *Item) ExternalWait() float64 { return it.Dispatch - it.Arrival }

// Outcome is what the backend reports when an item completes.
type Outcome struct {
	// InsideTime is the seconds spent between dispatch and completion
	// as measured by the backend (queueing inside the backend included).
	InsideTime float64
	// Restarts counts internal retry cycles (deadlock aborts and the
	// like in the simulated DBMS; retries of a guarded call live).
	Restarts int
}

// Backend executes admitted items. Exec is called once per item when
// the gate admits it; the backend must eventually call
// Frontend.Complete for that item exactly once. Exec must not call
// Complete synchronously from within itself.
type Backend interface {
	Exec(it *Item)
}

// Policy orders the external queue. Implementations are not safe for
// concurrent use on their own; the Frontend serializes all access.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Push enqueues an item.
	Push(*Item)
	// Pop removes and returns the next item to dispatch, or nil if
	// empty.
	Pop() *Item
	// Len returns the queue length.
	Len() int
}

// compactable is an optional Policy extension: drop queued items that
// fail keep, preserving dispatch order among the kept. The frontend
// uses it to purge canceled items in bulk — without it, a canceled
// item is only discarded when it surfaces at the head of the queue,
// which under SJF/WFQ (or a stalled backend) may be never. All
// built-in policies implement it.
type compactable interface {
	compact(keep func(*Item) bool)
}

// discardAware is an optional Policy extension: notified when the
// frontend discards a canceled item it popped, so the policy can undo
// enqueue-time bookkeeping (WFQ refunds the class's virtual-time
// charge).
type discardAware interface {
	discarded(*Item)
}

// PolicyNames lists the built-in policies for NewPolicy.
const (
	PolicyFIFO     = "fifo"
	PolicyPriority = "priority"
	PolicySJF      = "sjf"
	PolicyWFQ      = "wfq"
)

// NewPolicy builds a built-in policy by name ("" = FIFO). wfqWeights
// applies only to "wfq": per-class weights, nil for {ClassHigh: 4}.
func NewPolicy(name string, wfqWeights map[Class]float64) (Policy, error) {
	switch name {
	case "", PolicyFIFO:
		return NewFIFO(), nil
	case PolicyPriority:
		return NewPriority(), nil
	case PolicySJF:
		return NewSJF(), nil
	case PolicyWFQ:
		if wfqWeights == nil {
			wfqWeights = map[Class]float64{ClassHigh: 4}
		}
		return NewWFQ(wfqWeights), nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q (want fifo, priority, sjf or wfq)", name)
	}
}

// ring is a growable circular FIFO of items. Unlike the reslicing
// `q = q[1:]` idiom, dequeues reuse the backing array instead of
// abandoning its head, so a long run's queue churn stays within one
// allocation instead of leaking backing arrays behind the advancing
// slice window.
type ring struct {
	buf        []*Item
	head, size int
}

func (r *ring) len() int { return r.size }

func (r *ring) push(it *Item) {
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)%len(r.buf)] = it
	r.size++
}

func (r *ring) pop() *Item {
	if r.size == 0 {
		return nil
	}
	it := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.size--
	return it
}

// compact drops items failing keep, preserving order of the rest.
func (r *ring) compact(keep func(*Item) bool) {
	kept := 0
	for i := 0; i < r.size; i++ {
		it := r.buf[(r.head+i)%len(r.buf)]
		if keep(it) {
			r.buf[(r.head+kept)%len(r.buf)] = it
			kept++
		}
	}
	for i := kept; i < r.size; i++ {
		r.buf[(r.head+i)%len(r.buf)] = nil
	}
	r.size = kept
}

// grow doubles the capacity, unwrapping the live window to the front.
func (r *ring) grow() {
	capacity := len(r.buf) * 2
	if capacity == 0 {
		capacity = 16
	}
	buf := make([]*Item, capacity)
	for i := 0; i < r.size; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head = buf, 0
}

// FIFOPolicy dispatches in arrival order.
type FIFOPolicy struct {
	q ring
}

// NewFIFO returns a FIFO policy.
func NewFIFO() *FIFOPolicy { return &FIFOPolicy{} }

func (p *FIFOPolicy) Name() string                  { return "fifo" }
func (p *FIFOPolicy) Push(it *Item)                 { p.q.push(it) }
func (p *FIFOPolicy) Pop() *Item                    { return p.q.pop() }
func (p *FIFOPolicy) Len() int                      { return p.q.len() }
func (p *FIFOPolicy) compact(keep func(*Item) bool) { p.q.compact(keep) }

// PriorityPolicy dispatches ClassHigh items first, FIFO within a class
// — the paper's Section 5 prioritization algorithm.
type PriorityPolicy struct {
	high, low ring
}

// NewPriority returns a priority policy.
func NewPriority() *PriorityPolicy { return &PriorityPolicy{} }

func (p *PriorityPolicy) Name() string { return "priority" }
func (p *PriorityPolicy) Push(it *Item) {
	if it.Class == ClassHigh {
		p.high.push(it)
	} else {
		p.low.push(it)
	}
}
func (p *PriorityPolicy) Pop() *Item {
	if it := p.high.pop(); it != nil {
		return it
	}
	return p.low.pop()
}
func (p *PriorityPolicy) Len() int { return p.high.len() + p.low.len() }
func (p *PriorityPolicy) compact(keep func(*Item) bool) {
	p.high.compact(keep)
	p.low.compact(keep)
}

// SJFPolicy dispatches the item with the smallest SizeHint first (ties
// by arrival). It demonstrates the paper's point that the external
// queue admits arbitrary custom policies.
type SJFPolicy struct {
	q []*Item
}

// NewSJF returns a shortest-job-first policy.
func NewSJF() *SJFPolicy { return &SJFPolicy{} }

func (p *SJFPolicy) Name() string { return "sjf" }
func (p *SJFPolicy) Push(it *Item) {
	p.q = append(p.q, it)
	// Sift up in a slice-backed min-heap keyed by (size, seq).
	i := len(p.q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !sjfLess(p.q[i], p.q[parent]) {
			break
		}
		p.q[i], p.q[parent] = p.q[parent], p.q[i]
		i = parent
	}
}
func (p *SJFPolicy) Pop() *Item {
	n := len(p.q)
	if n == 0 {
		return nil
	}
	it := p.q[0]
	p.q[0] = p.q[n-1]
	p.q[n-1] = nil
	p.q = p.q[:n-1]
	p.siftDown(0)
	return it
}
func (p *SJFPolicy) Len() int { return len(p.q) }

func (p *SJFPolicy) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(p.q) && sjfLess(p.q[l], p.q[smallest]) {
			smallest = l
		}
		if r < len(p.q) && sjfLess(p.q[r], p.q[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		p.q[i], p.q[smallest] = p.q[smallest], p.q[i]
		i = smallest
	}
}

func (p *SJFPolicy) compact(keep func(*Item) bool) {
	kept := 0
	for _, it := range p.q {
		if keep(it) {
			p.q[kept] = it
			kept++
		}
	}
	for i := kept; i < len(p.q); i++ {
		p.q[i] = nil
	}
	p.q = p.q[:kept]
	for i := kept/2 - 1; i >= 0; i-- {
		p.siftDown(i)
	}
}

func sjfLess(a, b *Item) bool {
	if a.SizeHint != b.SizeHint {
		return a.SizeHint < b.SizeHint
	}
	return a.seq < b.seq
}

// Metrics aggregates frontend measurements. Response times include
// external queueing (the paper's definition).
type Metrics struct {
	Completed uint64
	All       stats.Accumulator // response time, all classes
	Inside    stats.Accumulator // time inside the backend
	ExtWait   stats.Accumulator // external queue wait
	Restarts  uint64
	// Classes carries one response-time accumulator per class seen
	// since the metrics were created, in ascending class-ID order, for
	// any class ID (exotic ones outside the fast-path tracked range
	// included). A reset keeps the entries and zeroes them, so a class
	// idle in the window shows up with a zero count.
	Classes    []ClassMetric
	resetTime  float64
	windowTime float64
}

// ClassMetric is one class's (tenant's) slice of a Metrics window.
type ClassMetric struct {
	// Class is the class ID.
	Class Class
	// RT accumulates the class's response times (count, mean,
	// variance); merge windows or shards with RT.Merge.
	RT stats.Accumulator
}

// Completed returns the class's completion count (RT observation
// count).
func (m ClassMetric) Completed() uint64 { return uint64(m.RT.Count()) }

// Mean returns the class's mean response time (0 when it completed
// nothing).
func (m ClassMetric) Mean() float64 { return m.RT.Mean() }

// ClassMetric finds class c's entry in Classes (zero value when the
// class completed nothing in the window). It scans rather than
// bisects, so a Metrics value assembled by hand with Classes out of
// order still reads correctly.
func (m Metrics) ClassMetric(c Class) ClassMetric {
	for _, cm := range m.Classes {
		if cm.Class == c {
			return cm
		}
	}
	return ClassMetric{Class: c}
}

// classRT returns class c's response-time accumulator, inserting a
// zero entry in class-ID order the first time c is seen. Only Observe
// and MergeClassMetrics insert, so the slice it searches is ascending.
func (m *Metrics) classRT(c Class) *stats.Accumulator {
	i, ok := slices.BinarySearchFunc(m.Classes, c, func(cm ClassMetric, c Class) int {
		return cmp.Compare(cm.Class, c)
	})
	if !ok {
		m.Classes = slices.Insert(m.Classes, i, ClassMetric{Class: c})
	}
	return &m.Classes[i].RT
}

// Observe records one completed item: its response time (overall and
// per class), its time inside the backend, its external wait and its
// restarts. It is the one place a completion is accounted, for the
// frontend's window and for every scope a scenario run keeps. The item
// must carry its Outcome. Allocation-free once the item's class has
// been seen.
func (m *Metrics) Observe(it *Item) {
	rt := it.ResponseTime()
	m.Completed++
	m.All.Add(rt)
	m.classRT(it.Class).Add(rt)
	m.Inside.Add(it.Outcome.InsideTime)
	m.ExtWait.Add(it.ExternalWait())
	m.Restarts += uint64(it.Outcome.Restarts)
}

// Reset zeroes the window, window length included, but keeps the
// per-class entries (with zeroed accumulators) and their storage, so a
// scope that is reset every interval allocates nothing.
func (m *Metrics) Reset() {
	classes := m.Classes
	for i := range classes {
		classes[i].RT.Reset()
	}
	*m = Metrics{Classes: classes}
}

// MergeClassMetrics merges per-class accumulators from several Metrics
// windows (e.g. the shards of a cluster) into one ascending-class-ID
// slice — the per-class analogue of merging the All accumulators.
func MergeClassMetrics(windows ...[]ClassMetric) []ClassMetric {
	var out Metrics
	for _, w := range windows {
		for i := range w {
			out.classRT(w[i].Class).Merge(&w[i].RT)
		}
	}
	return out.Classes
}

// WithWindow returns a copy of m whose Throughput is computed over the
// given window length in seconds — for synthesizing metric snapshots
// (e.g. in controller tests) without a live frontend.
func (m Metrics) WithWindow(seconds float64) Metrics {
	m.windowTime = seconds
	return m
}

// Throughput returns completions per second since the last reset.
func (m Metrics) Throughput() float64 {
	if m.windowTime <= 0 {
		return 0
	}
	return float64(m.Completed) / m.windowTime
}

// Window returns the length in seconds of the metrics window the
// snapshot covers (time since the last reset, for snapshots taken from
// a live frontend).
func (m Metrics) Window() float64 { return m.windowTime }

// The gate word packs the whole fast-path state into one uint64 so a
// single CAS can atomically check the limit, claim or free a slot, and
// validate that the slow path is not engaged:
//
//	bits 0..29   inside (dispatched, uncompleted items)
//	bits 30..60  limit  (the MPL; 0 = unlimited)
//	bit  62      slow flag (queue/deferred work, or a class partition)
const (
	insideBits = 30
	insideMask = (uint64(1) << insideBits) - 1
	limitShift = insideBits
	limitBits  = 31
	limitMask  = (uint64(1) << limitBits) - 1
	slowFlag   = uint64(1) << 62
)

// MaxMPL is the largest representable MPL limit.
const MaxMPL = int(limitMask)

// trackedClasses is the number of small non-negative classes whose
// inside counts live in a fixed array of atomics (so the lock-free
// fast path can maintain them). Items of any other class still work —
// they just always take the mutex path, where a map tracks them.
const trackedClasses = 8

func unpack(s uint64) (inside, limit int) {
	return int(s & insideMask), int((s >> limitShift) & limitMask)
}

// Frontend is the external scheduler: the MPL gate plus the reorderable
// queue, generic over the executing backend and the time source. All
// methods are safe for concurrent use.
type Frontend struct {
	mu      sync.Mutex
	clock   sim.Clock
	backend Backend
	policy  Policy
	seq     uint64
	// word is the packed gate state (see insideBits and friends): the
	// inside count, the MPL limit, and the slow flag, maintained with
	// CAS so the uncontended admit/complete path never locks mu. The
	// flag bit itself only transitions under mu (updateSlowLocked).
	word atomic.Uint64
	// metricsMu guards metrics and the response-time reservoirs. It is
	// deliberately separate from mu: the completion fast path records
	// metrics under this tiny lock without touching the queue lock, and
	// keeping one lock (rather than sharded cells) preserves the exact
	// sequential accumulation order the deterministic simulator
	// fingerprints depend on.
	metricsMu sync.Mutex
	metrics   Metrics
	// classInside splits inside by priority class for classes in
	// [0, trackedClasses) — atomics so the fast path can maintain them;
	// classInsideX (under mu) tracks any exotic class values.
	classInside  [trackedClasses]atomic.Int64
	classInsideX map[Class]int
	// deadlineArmed counts classes with an admit deadline configured.
	// Nonzero forces every submission through the slow path, where the
	// deadline map can be read under mu.
	deadlineArmed atomic.Int32
	// classLimit, when non-nil, partitions the MPL across classes: a
	// class at its limit does not dispatch while another class has
	// eligible work, but capacity is never left idle (work-conserving
	// borrowing — see dispatch). Classes absent from the map are
	// uncapped (the global MPL still applies).
	classLimit map[Class]int
	// strictLimit makes the class partition a hard cap: a class at its
	// limit never borrows idle capacity (dispatch skips its borrowing
	// step). Trades utilization for latency isolation — the fairness
	// controller's strict mode sets it.
	strictLimit bool
	// deferred holds items popped from the policy while their class was
	// at its limit, per class, in policy-pop order; deferredOrder keeps
	// the classes sorted so dispatch scans them deterministically.
	deferred      map[Class]*ring
	deferredOrder []Class
	deferredCount int
	// admitDeadline is the per-class relative admission deadline in
	// seconds (absent = none): Submit stamps Item.Deadline from it.
	admitDeadline map[Class]float64
	// shed counts deadline-shed items, total and per class.
	shed      uint64
	shedClass map[Class]uint64
	// queueLimit, when > 0, turns the frontend into the admission
	// controller the paper contrasts itself with (Section 1): arrivals
	// beyond the limit are DROPPED instead of queued. External
	// scheduling proper never drops (queueLimit 0).
	queueLimit int
	dropped    uint64
	// deadQueued counts withdrawn (canceled, shed, or failed) items
	// still sitting in the policy queue or a deferred ring awaiting lazy
	// discard; canceled counts all cancellations.
	deadQueued int
	canceled   uint64
	// failed counts items lost to a backend failure: queued or
	// dispatched work withdrawn by FailQueued/FailDispatched when the
	// backend behind this frontend dies. With failures in play the
	// conservation invariant reads
	// accepted == completed + inside + queued + canceled + shed + failed.
	failed uint64
	// OnComplete, if set, observes every completion (used by drivers
	// for closed-loop clients and by controller wiring). Set hooks
	// before traffic flows; they run outside the frontend lock.
	OnComplete func(*Item)
	// OnDrop, if set, observes admission-control rejections.
	OnDrop func(*Item)
	// OnShed, if set, observes deadline sheds (after the item's own
	// done callback, outside the frontend lock).
	OnShed func(*Item)
	// rtSample, when enabled, reservoir-samples response times for
	// percentile reporting; rtClass splits the sampling per class (the
	// SLO controller steers on these). Guarded by metricsMu, like the
	// accumulators they ride along with.
	rtSample *stats.Reservoir
	rtClass  map[Class]*stats.Reservoir
	rtCap    int
	rtSeed   uint64
	// tenantMu guards the tenant registry, which is append-only:
	// RegisterClass hands out sequential class IDs.
	tenantMu sync.Mutex
	tenants  []Tenant
}

// Tenant is one registered tenant: a class ID bound to a human name, a
// WFQ/fairness weight, and an optional SLO target.
type Tenant struct {
	// Class is the tenant's class ID (sequential from 0 in
	// registration order).
	Class Class
	// Name is the tenant's human-readable name.
	Name string
	// Weight is the tenant's relative share weight (WFQ weight,
	// fairness-controller share). Must be > 0.
	Weight float64
	// SLOTarget is the tenant's p95 response-time target in seconds
	// (0 = none declared).
	SLOTarget float64
}

// RegisterClass adds a tenant to the registry and returns its class ID
// (sequential from 0 in registration order). weight must be > 0;
// sloTarget is an optional p95 target in seconds (0 = none). The
// registry is pure metadata: it names classes in reports and seeds
// controller weights, but items of unregistered classes flow through
// the gate exactly as before.
func (f *Frontend) RegisterClass(name string, weight, sloTarget float64) Class {
	if weight <= 0 {
		panic(fmt.Sprintf("core: tenant %q weight %v must be > 0", name, weight))
	}
	if sloTarget < 0 {
		panic(fmt.Sprintf("core: tenant %q SLO target %v must be >= 0", name, sloTarget))
	}
	f.tenantMu.Lock()
	defer f.tenantMu.Unlock()
	c := Class(len(f.tenants))
	f.tenants = append(f.tenants, Tenant{Class: c, Name: name, Weight: weight, SLOTarget: sloTarget})
	return c
}

// Tenants returns a copy of the tenant registry in class-ID order
// (nil when nothing is registered).
func (f *Frontend) Tenants() []Tenant {
	f.tenantMu.Lock()
	defer f.tenantMu.Unlock()
	if len(f.tenants) == 0 {
		return nil
	}
	out := make([]Tenant, len(f.tenants))
	copy(out, f.tenants)
	return out
}

// TenantName returns the registered name of class c ("" when
// unregistered).
func (f *Frontend) TenantName(c Class) string {
	f.tenantMu.Lock()
	defer f.tenantMu.Unlock()
	if c >= 0 && int(c) < len(f.tenants) {
		return f.tenants[c].Name
	}
	return ""
}

// New builds a frontend over backend with the given MPL (0 = unlimited)
// and policy (nil = FIFO), reading time from clock.
func New(clock sim.Clock, backend Backend, mpl int, policy Policy) *Frontend {
	if mpl < 0 || mpl > MaxMPL {
		panic(fmt.Sprintf("core: MPL %d must be in [0, %d]", mpl, MaxMPL))
	}
	if policy == nil {
		policy = NewFIFO()
	}
	f := &Frontend{clock: clock, backend: backend, policy: policy}
	f.word.Store(uint64(mpl) << limitShift)
	return f
}

// MPL returns the current limit (0 = unlimited). Lock-free.
func (f *Frontend) MPL() int {
	_, limit := unpack(f.word.Load())
	return limit
}

// SetMPL changes the limit. Raising it dispatches queued items
// immediately; lowering it takes effect as running items drain (the
// paper's controller operates the same way — no preemption of
// dispatched work). Because the limit shares the atomic gate word with
// the inside count, shrinking below the current inside count is safe
// under concurrency: admissions compare against the limit in the same
// CAS that claims a slot, so the count can overshoot neither the old
// nor the new limit, and it simply drains down (no underflow, no
// stranded waiters — the post-shrink dispatch and every release keep
// waking the queue).
func (f *Frontend) SetMPL(mpl int) {
	if mpl < 0 || mpl > MaxMPL {
		panic(fmt.Sprintf("core: MPL %d must be in [0, %d]", mpl, MaxMPL))
	}
	for {
		s := f.word.Load()
		ns := (s &^ (limitMask << limitShift)) | uint64(mpl)<<limitShift
		if f.word.CompareAndSwap(s, ns) {
			break
		}
	}
	f.dispatch()
}

// SetClassLimits partitions the MPL across priority classes: class c
// dispatches at most limits[c] concurrent items while other classes
// have eligible work (capacity is never left idle — see dispatch's
// work-conserving borrowing). Classes absent from the map are uncapped.
// Every present limit must be >= 1. nil (or an empty map) clears the
// partition. Raising or clearing limits dispatches deferred items
// immediately; lowering takes effect as running items drain.
func (f *Frontend) SetClassLimits(limits map[Class]int) {
	for c, l := range limits {
		if l < 1 {
			panic(fmt.Sprintf("core: class %d limit %d must be >= 1", c, l))
		}
	}
	f.mu.Lock()
	if len(limits) == 0 {
		f.classLimit = nil
	} else {
		f.classLimit = make(map[Class]int, len(limits))
		for c, l := range limits {
			f.classLimit[c] = l
		}
	}
	f.updateSlowLocked()
	f.mu.Unlock()
	f.dispatch()
}

// SetStrictPartition switches the class partition between
// work-conserving (the default: a class at its limit may still borrow
// capacity that would otherwise idle) and strict (limits are hard
// caps — a class at its limit waits even while slots sit idle). Strict
// partitions trade utilization for latency isolation: an overloaded
// tenant's backlog can no longer keep the backend saturated, so the
// other tenants' in-DBMS times stay near their uncontended levels. No
// effect while no partition is set.
func (f *Frontend) SetStrictPartition(strict bool) {
	f.mu.Lock()
	f.strictLimit = strict
	f.mu.Unlock()
	// Relaxing to work-conserving may unblock deferred work at once.
	f.dispatch()
}

// StrictPartition reports whether class limits are hard caps.
func (f *Frontend) StrictPartition() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.strictLimit
}

// ClassLimits returns a copy of the per-class limit partition (nil when
// no partition is set). Allocates a fresh map per call — reporters on a
// hot path should use ClassLimit instead.
func (f *Frontend) ClassLimits() map[Class]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.classLimit == nil {
		return nil
	}
	out := make(map[Class]int, len(f.classLimit))
	for c, l := range f.classLimit {
		out[c] = l
	}
	return out
}

// ClassLimit returns class c's limit under the current partition (ok
// false when the class is uncapped or no partition is set). Unlike
// ClassLimits it allocates nothing.
func (f *Frontend) ClassLimit(c Class) (limit int, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	limit, ok = f.classLimit[c]
	return limit, ok
}

// SetAdmitDeadline sets class c's admission deadline: an item of that
// class that cannot be dispatched within seconds of its arrival is shed
// (rejected without executing) instead of waiting forever — the paper's
// overload answer, applied per class. 0 clears the class's deadline.
// Applies to subsequent submissions; already-queued items keep the
// deadline they were stamped with.
func (f *Frontend) SetAdmitDeadline(c Class, seconds float64) {
	if seconds < 0 {
		panic(fmt.Sprintf("core: admit deadline %v must be >= 0", seconds))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	_, had := f.admitDeadline[c]
	if seconds == 0 {
		delete(f.admitDeadline, c)
		if had {
			f.deadlineArmed.Add(-1)
		}
		return
	}
	if f.admitDeadline == nil {
		f.admitDeadline = make(map[Class]float64)
	}
	f.admitDeadline[c] = seconds
	if !had {
		f.deadlineArmed.Add(1)
	}
}

// AdmitDeadline returns class c's admission deadline in seconds (0 =
// none).
func (f *Frontend) AdmitDeadline(c Class) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.admitDeadline[c]
}

// Shed returns the number of items rejected by deadline shedding.
func (f *Frontend) Shed() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shed
}

// ShedClasses returns a copy of the per-class shed counts as one
// consistent snapshot (nil when nothing was shed). Concurrent
// reporters deriving one class's share from another's must read this
// one snapshot rather than separately-locked counters.
func (f *Frontend) ShedClasses() map[Class]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.shedClass) == 0 {
		return nil
	}
	out := make(map[Class]uint64, len(f.shedClass))
	for c, n := range f.shedClass {
		out[c] = n
	}
	return out
}

// QueueLen returns the external queue length (withdrawn items awaiting
// lazy discard excluded; class-deferred items included — they are still
// waiting).
func (f *Frontend) QueueLen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.queueLenLocked()
}

func (f *Frontend) queueLenLocked() int {
	return f.policy.Len() + f.deferredCount - f.deadQueued
}

// Inside returns the number of dispatched, uncompleted items.
// Lock-free.
func (f *Frontend) Inside() int {
	inside, _ := unpack(f.word.Load())
	return inside
}

// Policy returns the queue policy. The frontend still owns it; do not
// call its methods while the frontend is in use.
func (f *Frontend) Policy() Policy { return f.policy }

// SetWFQWeights reconfigures the per-class weights of a WFQ policy
// mid-run (scenario events change policy weights this way). It reports
// false when the frontend's policy is not WFQ. Already-queued items
// keep the virtual-time tags they were charged at enqueue; the new
// weights apply to subsequent arrivals.
func (f *Frontend) SetWFQWeights(weights map[Class]float64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.policy.(*WFQPolicy)
	if !ok {
		return false
	}
	p.SetWeights(weights)
	return true
}

// EnablePercentiles turns on reservoir sampling of response times,
// overall and per class (capacity samples each, deterministic given
// seed). Enable before running for whole-run percentiles; enabling
// mid-run samples from that point on.
func (f *Frontend) EnablePercentiles(capacity int, seed uint64) {
	f.metricsMu.Lock()
	defer f.metricsMu.Unlock()
	f.rtSample = stats.NewReservoir(capacity, sim.NewRNG(seed, 31))
	f.rtClass = make(map[Class]*stats.Reservoir)
	f.rtCap, f.rtSeed = capacity, seed
}

// PercentilesEnabled reports whether response-time sampling is on.
func (f *Frontend) PercentilesEnabled() bool {
	f.metricsMu.Lock()
	defer f.metricsMu.Unlock()
	return f.rtSample != nil
}

// classReservoirLocked lazily builds class c's sampling reservoir. The
// RNG stream is derived from the class alone, so creation order cannot
// perturb determinism. Called with metricsMu held.
func (f *Frontend) classReservoirLocked(c Class) *stats.Reservoir {
	r := f.rtClass[c]
	if r == nil {
		r = stats.NewReservoir(f.rtCap, sim.NewRNG(f.rtSeed, 37+2*uint64(int64(c)&0xffff)))
		f.rtClass[c] = r
	}
	return r
}

// ResponseTimePercentile estimates the p-th percentile of response
// times in the current window (0 when sampling is disabled or empty).
func (f *Frontend) ResponseTimePercentile(p float64) float64 {
	f.metricsMu.Lock()
	defer f.metricsMu.Unlock()
	if f.rtSample == nil {
		return 0
	}
	return f.rtSample.Percentile(p)
}

// ClassResponseTimePercentile estimates the p-th percentile of class
// c's response times in the current window (0 when sampling is disabled
// or the class saw no completions) — the SLO controller's feedback
// signal.
func (f *Frontend) ClassResponseTimePercentile(c Class, p float64) float64 {
	f.metricsMu.Lock()
	defer f.metricsMu.Unlock()
	if f.rtClass == nil {
		return 0
	}
	r := f.rtClass[c]
	if r == nil {
		return 0
	}
	return r.Percentile(p)
}

// Metrics returns a snapshot of the metrics window.
func (f *Frontend) Metrics() Metrics {
	f.metricsMu.Lock()
	defer f.metricsMu.Unlock()
	m := f.metrics
	m.windowTime = f.clock.Now() - f.metrics.resetTime
	m.Classes = slices.Clone(m.Classes)
	return m
}

// ResetMetrics starts a fresh measurement window (e.g. after warmup,
// or per controller observation period).
func (f *Frontend) ResetMetrics() {
	f.metricsMu.Lock()
	defer f.metricsMu.Unlock()
	f.metrics.Reset()
	f.metrics.resetTime = f.clock.Now()
	if f.rtSample != nil {
		f.rtSample.Reset()
	}
	for _, r := range f.rtClass {
		r.Reset()
	}
}

// tryFastAdmit is the lock-free admission path: when the slow flag is
// clear (no queued or deferred work, no class partition) and nothing
// forces the mutex's ordering — no admit deadlines armed, no pre-set
// item deadline, a tracked class — a single CAS on the gate word
// claims a free slot and the item is dispatched on the spot, with
// Arrival == Dispatch. Returns false when the caller must go through
// the mutex path instead; it has then not touched the item.
//
// Fast admissions skip seq assignment: seq only breaks ties between
// QUEUED items (SJF order, WFQ heap), and a fast-admitted item is
// never queued, so the relative order among queued items is unchanged.
func (f *Frontend) tryFastAdmit(it *Item) bool {
	if it.Class < 0 || int(it.Class) >= trackedClasses || it.Deadline != 0 {
		return false
	}
	if f.deadlineArmed.Load() != 0 {
		return false
	}
	for {
		s := f.word.Load()
		if s&slowFlag != 0 {
			return false
		}
		inside, limit := unpack(s)
		if uint64(inside) == insideMask || (limit != 0 && inside >= limit) {
			return false
		}
		if f.word.CompareAndSwap(s, s+1) {
			now := f.clock.Now()
			it.Arrival, it.Dispatch = now, now
			it.state = itemDispatched
			f.classInside[it.Class].Add(1)
			return true
		}
		// The word moved under us (a racing admit, release, or a
		// slow-flag transition): reload and re-validate.
	}
}

// TryAcquire is the admission fast path for callers that handle the
// admitted work synchronously (the live gate): on success the item is
// dispatched — Arrival == Dispatch == now — WITHOUT Backend.Exec being
// called, the caller owns the slot, and it must call Complete (or
// Discard) for the item exactly once. It returns false, leaving the
// item untouched, whenever the fast path is unavailable (waiters
// queued, class limits or admit deadlines armed, the item carries a
// Deadline or an untracked class, or the gate is full); the caller
// must then go through Submit. TryAcquire never queues and never
// allocates.
func (f *Frontend) TryAcquire(it *Item) bool {
	it.done = nil
	return f.tryFastAdmit(it)
}

// Submit delivers a new item to the external scheduler. done, if not
// nil, runs on the item's completion before the frontend-wide
// OnComplete hook (used by closed-loop drivers to cycle their client).
// Under a queue limit (admission-control mode) the item may be
// rejected: Submit returns false, no callbacks are scheduled, and the
// drop is counted (and reported to OnDrop).
func (f *Frontend) Submit(it *Item, done func(*Item)) bool {
	if f.tryFastAdmit(it) {
		// Admitted without the mutex: a free slot, an empty queue, and
		// nothing slow-path-only in play. Same timestamps, same
		// counters, same Exec as the queue-then-immediately-dispatch
		// path below — just no lock and no seq.
		it.done = done
		f.backend.Exec(it)
		return true
	}
	f.mu.Lock()
	it.Arrival = f.clock.Now()
	it.seq = f.seq
	it.done = done
	f.seq++
	if it.Deadline == 0 && f.admitDeadline != nil {
		if d, ok := f.admitDeadline[it.Class]; ok {
			it.Deadline = it.Arrival + d
		}
	}
	if f.queueLimit > 0 && f.queueLenLocked() >= f.queueLimit {
		f.dropped++
		hook := f.OnDrop
		f.mu.Unlock()
		if hook != nil {
			hook(it)
		}
		return false
	}
	it.state = itemQueued
	f.policy.Push(it)
	// Raise the slow flag BEFORE unlocking: from here on a concurrent
	// fast release must fall into the mutex path (its CAS sees the
	// flag), and the dispatch below always re-checks the limit — so a
	// slot freed at any point around this push is never lost.
	f.updateSlowLocked()
	f.mu.Unlock()
	f.dispatch()
	return true
}

// updateSlowLocked recomputes the slow flag from the queue state:
// set while anything sits in the policy queue or a deferred ring
// (withdrawn items awaiting lazy discard included — they still occupy
// the policy) or while a class partition is armed. Called with f.mu
// held, as the last word-state mutation before every unlock — the flag
// only ever transitions under the mutex, which is what makes the
// fast-path CAS ordering sound.
func (f *Frontend) updateSlowLocked() {
	want := f.policy.Len()+f.deferredCount > 0 || f.classLimit != nil
	for {
		s := f.word.Load()
		ns := s &^ slowFlag
		if want {
			ns = s | slowFlag
		}
		if ns == s || f.word.CompareAndSwap(s, ns) {
			return
		}
	}
}

// compactThreshold bounds how many canceled items may linger in the
// queue before a bulk purge: once they exceed it AND outnumber half
// the queue, compact. Lazy head-of-queue discard alone is not enough —
// under SJF/WFQ a canceled large item may never surface, and while the
// backend stalls nothing surfaces at all.
const compactThreshold = 64

// CancelQueued withdraws a still-queued item (context cancellation in
// live gates). It reports whether the item was withdrawn; false means
// the item was already dispatched, completed, or shed. Withdrawn items
// are discarded lazily — when they surface at the head of the queue,
// or in bulk once enough accumulate — costing no slot and no metrics.
func (f *Frontend) CancelQueued(it *Item) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if it.state != itemQueued {
		return false
	}
	it.state = itemCanceled
	f.deadQueued++
	f.canceled++
	f.maybeCompactLocked()
	f.updateSlowLocked()
	return true
}

// ShedQueued withdraws a still-queued item as a deadline shed — the
// live gate's deadline timers use it to reject a ticket the moment its
// deadline passes instead of waiting for it to surface at the head of
// the queue. It reports whether the item was shed; false means the
// item was already dispatched, completed, canceled, or shed. Unlike
// the lazy dispatch-time shed, the caller's done callback and the
// OnShed hook fire before ShedQueued returns.
func (f *Frontend) ShedQueued(it *Item) bool {
	f.mu.Lock()
	if it.state != itemQueued {
		f.mu.Unlock()
		return false
	}
	it.state = itemShed
	f.shedLocked(it)
	f.deadQueued++
	f.maybeCompactLocked()
	f.updateSlowLocked()
	hook := f.OnShed
	f.mu.Unlock()
	notifyShed(it, hook)
	return true
}

// shedLocked stamps and counts a shed. Called with f.mu held; the item
// must already be marked itemShed.
func (f *Frontend) shedLocked(it *Item) {
	it.Complete = f.clock.Now()
	f.shed++
	if f.shedClass == nil {
		f.shedClass = make(map[Class]uint64)
	}
	f.shedClass[it.Class]++
}

// notifyShed delivers a shed item's callbacks (outside the lock): the
// per-item done callback first — it fires for sheds exactly as for
// completions, so closed-loop clients cycle; WasShed distinguishes —
// then the frontend-wide OnShed hook.
func notifyShed(it *Item, hook func(*Item)) {
	if it.done != nil {
		it.done(it)
	}
	if hook != nil {
		hook(it)
	}
}

// maybeCompactLocked purges withdrawn items in bulk once they exceed
// the threshold AND outnumber half the waiting items. Called with f.mu
// held.
func (f *Frontend) maybeCompactLocked() {
	if f.deadQueued >= compactThreshold && f.deadQueued*2 >= f.policy.Len()+f.deferredCount {
		f.compactLocked()
	}
}

// compactLocked purges canceled and shed items in bulk — from the
// policy queue (policies that support it) and the class-deferred
// rings. Called with f.mu held.
func (f *Frontend) compactLocked() {
	if c, ok := f.policy.(compactable); ok {
		da, _ := f.policy.(discardAware)
		c.compact(func(it *Item) bool {
			if it.state != itemCanceled && it.state != itemShed && it.state != itemFailed {
				return true
			}
			f.deadQueued--
			if da != nil {
				da.discarded(it)
			}
			return false
		})
	}
	for _, c := range f.deferredOrder {
		f.deferred[c].compact(func(it *Item) bool {
			if it.state != itemCanceled && it.state != itemShed && it.state != itemFailed {
				return true
			}
			f.deadQueued--
			f.deferredCount--
			return false
		})
	}
}

// Canceled returns the number of items withdrawn by CancelQueued.
func (f *Frontend) Canceled() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.canceled
}

// Failed returns the number of items lost to backend failures
// (FailQueued + FailDispatched).
func (f *Frontend) Failed() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failed
}

// FailQueued withdraws a still-queued item because the backend behind
// the frontend died: the item never executes and is counted in Failed.
// It reports whether the item was withdrawn; false means the item was
// already dispatched, completed, canceled, or shed. Like CancelQueued
// the discard is lazy and no callbacks fire — the caller (the cluster
// dispatcher's recovery policy) decides whether to resubmit the work
// elsewhere or deliver a terminal failure.
func (f *Frontend) FailQueued(it *Item) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if it.state != itemQueued {
		return false
	}
	it.state = itemFailed
	it.Complete = f.clock.Now()
	f.deadQueued++
	f.failed++
	f.maybeCompactLocked()
	f.updateSlowLocked()
	return true
}

// FailDispatched withdraws an admitted, uncompleted item because the
// backend executing it died: the slot is freed, the loss is counted in
// Failed, and — as with FailQueued — no callbacks fire. The backend
// must never call Complete for the item afterwards (simulated backends
// suppress the late completion; see dbfe). Panics unless the item is
// currently dispatched.
func (f *Frontend) FailDispatched(it *Item) {
	f.mu.Lock()
	if it.state != itemDispatched {
		f.mu.Unlock()
		panic(fmt.Sprintf("core: FailDispatched on an item in state %d", it.state))
	}
	it.state = itemFailed
	it.Complete = f.clock.Now()
	f.releaseSlot()
	f.decClassLocked(it.Class)
	f.failed++
	f.mu.Unlock()
	f.dispatch()
}

// SetQueueLimit enables admission-control mode: arrivals that find
// limit items already queued are dropped. 0 disables dropping (pure
// external scheduling).
func (f *Frontend) SetQueueLimit(limit int) {
	if limit < 0 {
		panic(fmt.Sprintf("core: queue limit %d must be >= 0", limit))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.queueLimit = limit
}

// Dropped returns the number of admission-control rejections.
func (f *Frontend) Dropped() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// dispatch admits queued items while the MPL allows. Backend.Exec and
// the shed callbacks run outside the lock, so backends may call back
// into the frontend (and completions on other goroutines may
// interleave).
func (f *Frontend) dispatch() {
	for {
		f.mu.Lock()
		it, shedList := f.nextDispatchLocked()
		if it != nil {
			it.state = itemDispatched
			it.Dispatch = f.clock.Now()
			f.claimSlotLocked()
			f.incClassLocked(it.Class)
		}
		f.updateSlowLocked()
		hook := f.OnShed
		f.mu.Unlock()
		for _, s := range shedList {
			notifyShed(s, hook)
		}
		if it == nil {
			return
		}
		f.backend.Exec(it)
	}
}

// claimSlotLocked increments the inside count for an item popped by
// nextDispatchLocked. The limit was checked there; between that check
// and this increment only releases can race (the slow flag is set
// while anything is queued, which disables fast admissions, and other
// dispatchers need the mutex we hold), and releases only shrink the
// count — so the claim cannot overshoot. Called with f.mu held.
func (f *Frontend) claimSlotLocked() {
	for {
		s := f.word.Load()
		if s&insideMask == insideMask {
			panic("core: inside count overflow")
		}
		if f.word.CompareAndSwap(s, s+1) {
			return
		}
	}
}

// releaseSlot decrements the inside count (a completion, discard, or
// dispatched-failure freeing its slot). Safe with or without f.mu: the
// CAS retries around any racing word mutation.
func (f *Frontend) releaseSlot() {
	for {
		s := f.word.Load()
		if s&insideMask == 0 {
			panic("core: inside count underflow")
		}
		if f.word.CompareAndSwap(s, s-1) {
			return
		}
	}
}

// insideOfClassLocked reads class c's inside count. Called with f.mu
// held (tracked classes are atomics, but the exotic-class map is not).
func (f *Frontend) insideOfClassLocked(c Class) int {
	if c >= 0 && int(c) < trackedClasses {
		return int(f.classInside[c].Load())
	}
	return f.classInsideX[c]
}

func (f *Frontend) incClassLocked(c Class) {
	if c >= 0 && int(c) < trackedClasses {
		f.classInside[c].Add(1)
		return
	}
	if f.classInsideX == nil {
		f.classInsideX = make(map[Class]int)
	}
	f.classInsideX[c]++
}

func (f *Frontend) decClassLocked(c Class) {
	if c >= 0 && int(c) < trackedClasses {
		f.classInside[c].Add(-1)
		return
	}
	f.classInsideX[c]--
}

// classEligibleLocked reports whether class c may dispatch under the
// current partition. Called with f.mu held.
func (f *Frontend) classEligibleLocked(c Class) bool {
	if f.classLimit == nil {
		return true
	}
	lim, ok := f.classLimit[c]
	return !ok || f.insideOfClassLocked(c) < lim
}

// deferLocked parks a popped item whose class is at its limit,
// preserving policy-pop order within the class. Called with f.mu held.
func (f *Frontend) deferLocked(it *Item) {
	if f.deferred == nil {
		f.deferred = make(map[Class]*ring)
	}
	r := f.deferred[it.Class]
	if r == nil {
		r = &ring{}
		f.deferred[it.Class] = r
		i := 0
		for i < len(f.deferredOrder) && f.deferredOrder[i] < it.Class {
			i++
		}
		f.deferredOrder = append(f.deferredOrder, 0)
		copy(f.deferredOrder[i+1:], f.deferredOrder[i:])
		f.deferredOrder[i] = it.Class
	}
	r.push(it)
	f.deferredCount++
}

// popDeferredLocked pops the next live, unexpired item from class c's
// deferred ring, shedding expired ones into shedList. Called with f.mu
// held.
func (f *Frontend) popDeferredLocked(c Class, now float64, shedList *[]*Item) *Item {
	r := f.deferred[c]
	for r != nil && r.len() > 0 {
		cand := r.pop()
		f.deferredCount--
		if cand.state == itemCanceled || cand.state == itemShed || cand.state == itemFailed {
			// Withdrawn after deferral; its WFQ charge (if any) was
			// settled when the policy popped it, so just drop it.
			f.deadQueued--
			continue
		}
		if cand.Deadline > 0 && now > cand.Deadline {
			cand.state = itemShed
			f.shedLocked(cand)
			*shedList = append(*shedList, cand)
			continue
		}
		return cand
	}
	return nil
}

// nextDispatchLocked picks the next item to dispatch, or nil. Expired
// items encountered along the way are shed and returned for callback
// delivery outside the lock. Called with f.mu held.
//
// Selection order: (1) class-deferred items whose class has room —
// they were popped by the policy first, so they go first; (2) the
// policy queue, deferring items whose class is at its limit; (3) if
// capacity would otherwise idle while only class-blocked work waits,
// borrow: dispatch a deferred item past its class limit. Both
// deferred scans visit classes highest-first: larger Class values are
// the preferred ones repository-wide (ClassHigh > ClassLow), so a
// spare slot must never go to deferred low-class work while
// high-class work waits. Step 3 is what makes the partition
// work-conserving — class limits shape contention between classes,
// they never throttle the whole gate below its MPL. A strict
// partition (SetStrictPartition) skips step 3: limits become hard
// caps and capacity may idle while only at-limit classes hold work.
func (f *Frontend) nextDispatchLocked() (it *Item, shedList []*Item) {
	if inside, limit := unpack(f.word.Load()); limit != 0 && inside >= limit {
		return nil, nil
	}
	now := f.clock.Now()
	for i := len(f.deferredOrder) - 1; i >= 0; i-- {
		c := f.deferredOrder[i]
		if !f.classEligibleLocked(c) {
			continue
		}
		if cand := f.popDeferredLocked(c, now, &shedList); cand != nil {
			return cand, shedList
		}
	}
	for {
		cand := f.policy.Pop()
		if cand == nil {
			break
		}
		if cand.state == itemCanceled || cand.state == itemShed || cand.state == itemFailed {
			f.deadQueued--
			if da, ok := f.policy.(discardAware); ok {
				da.discarded(cand)
			}
			continue
		}
		if cand.Deadline > 0 && now > cand.Deadline {
			cand.state = itemShed
			f.shedLocked(cand)
			if da, ok := f.policy.(discardAware); ok {
				da.discarded(cand)
			}
			shedList = append(shedList, cand)
			continue
		}
		if !f.classEligibleLocked(cand.Class) {
			f.deferLocked(cand)
			continue
		}
		return cand, shedList
	}
	if f.strictLimit {
		return nil, shedList
	}
	for i := len(f.deferredOrder) - 1; i >= 0; i-- {
		if cand := f.popDeferredLocked(f.deferredOrder[i], now, &shedList); cand != nil {
			return cand, shedList
		}
	}
	return nil, shedList
}

// Discard completes an admitted item WITHOUT recording it in the
// metrics window — for work withdrawn right after admission (a live
// caller whose context died in the instant between admission and
// wake-up) that never actually ran. The slot is freed, the queue
// refilled, and the withdrawal counted in Canceled; the done and
// OnComplete hooks do not run, so a feedback controller's observation
// window sees no fabricated near-zero response time.
func (f *Frontend) Discard(it *Item) {
	f.mu.Lock()
	if it.state != itemDispatched {
		f.mu.Unlock()
		panic(fmt.Sprintf("core: Discard on an item in state %d", it.state))
	}
	it.state = itemDone
	it.Complete = f.clock.Now()
	f.releaseSlot()
	f.decClassLocked(it.Class)
	f.canceled++
	f.mu.Unlock()
	f.dispatch()
}

// Complete records an item's completion and refills the backend from
// the queue. Backends call it exactly once per executed item.
//
// When the slow flag is clear at the instant of the slot-freeing CAS —
// nothing queued, no class partition — the completion never takes the
// queue mutex: the CAS frees the slot, metrics are recorded under
// metricsMu, the callbacks run, and there is nobody to dispatch. If
// anything was waiting, the flag was set (it is only cleared under the
// mutex once the queue is empty), the CAS fails or the flag check
// does, and the completion falls through to the mutex path, whose
// dispatch wakes the queue. Either way the conservation invariant
// (accepted == completed + inside + queued + canceled + shed + failed)
// holds at every linearization point of the gate word.
func (f *Frontend) Complete(it *Item, o Outcome) {
	if it.state != itemDispatched {
		panic(fmt.Sprintf("core: Complete on an item in state %d (double completion?)", it.state))
	}
	if c := it.Class; c >= 0 && int(c) < trackedClasses {
		for {
			s := f.word.Load()
			if s&slowFlag != 0 {
				break // waiters or a partition: take the mutex path
			}
			if s&insideMask == 0 {
				panic("core: inside count underflow")
			}
			if f.word.CompareAndSwap(s, s-1) {
				it.state = itemDone
				it.Complete = f.clock.Now()
				it.Outcome = o
				f.classInside[c].Add(-1)
				f.finishCompletion(it)
				return
			}
		}
	}
	f.mu.Lock()
	if it.state != itemDispatched {
		f.mu.Unlock()
		panic(fmt.Sprintf("core: Complete on an item in state %d (double completion?)", it.state))
	}
	it.state = itemDone
	it.Complete = f.clock.Now()
	it.Outcome = o
	f.releaseSlot()
	f.decClassLocked(it.Class)
	f.mu.Unlock()
	f.finishCompletion(it)
	f.dispatch()
}

// finishCompletion records a completed item in the metrics window and
// delivers its callbacks. Shared by the fast and slow completion
// paths; called WITHOUT f.mu held (metricsMu is taken here, and the
// hooks may re-enter the frontend).
func (f *Frontend) finishCompletion(it *Item) {
	f.metricsMu.Lock()
	f.metrics.Observe(it)
	if f.rtSample != nil {
		rt := it.ResponseTime()
		f.rtSample.Add(rt)
		f.classReservoirLocked(it.Class).Add(rt)
	}
	f.metricsMu.Unlock()
	if it.done != nil {
		it.done(it)
	}
	if hook := f.OnComplete; hook != nil {
		hook(it)
	}
}
