// Package workload reproduces the paper's experimental workloads: the
// six Table 1 workload definitions derived from TPC-C and TPC-W by
// varying benchmark and hardware parameters, and the seventeen Table 2
// setups that combine them with CPU counts, disk counts and isolation
// levels. It provides transaction-profile generators plus closed
// (fixed client population) and open (Poisson) drivers.
//
// The real TPC kits are not reproducible offline, so each workload is a
// parametric transaction mix calibrated to the characteristics the
// paper reports: total service demand (which fixes the saturation
// throughput), CPU/IO balance, buffer-pool miss behaviour, lock
// hot-spot contention, and — critically for Section 3.2 — the squared
// coefficient of variation of service demand (C² ≈ 1–1.5 for the
// TPC-C-like workloads, C² ≈ 15 for the TPC-W-like ones).
package workload

import (
	"fmt"
	"slices"

	"extsched/internal/bufferpool"
	"extsched/internal/dbfe"
	"extsched/internal/dbms"
	"extsched/internal/dist"
	"extsched/internal/lockmgr"
	"extsched/internal/sim"
)

// TxnType is one transaction class within a workload mix (e.g.
// NewOrder, Payment, BestSeller).
type TxnType struct {
	Name string
	// Prob is the mix probability; probabilities in a Spec sum to 1.
	Prob float64
	// Ops is the number of operations (statements) in the transaction.
	Ops int
	// CPUPerOp is the CPU demand per operation in seconds.
	CPUPerOp dist.Distribution
	// PagesPerOp is the number of page accesses per operation.
	PagesPerOp int
	// WriteFrac is the probability that an operation takes an X lock.
	WriteFrac float64
	// HotKeyProb is the probability an operation's lock key falls in
	// the workload's hot key set (contended rows: warehouse rows in
	// TPC-C, popular items in TPC-W).
	HotKeyProb float64
}

// Spec is a full workload definition (a Table 1 row).
type Spec struct {
	Name      string
	Benchmark string // provenance: "TPC-C" or "TPC-W"
	Types     []TxnType
	// HotLockKeys is the size of the contended lock-key space.
	HotLockKeys uint64
	// DBPages is the database size in pages.
	DBPages uint64
	// HotFrac / HotAccess parameterize the buffer-pool access skew.
	HotFrac   float64
	HotAccess float64
	// BufferPoolPages is the Table 1 buffer-pool size in pages.
	BufferPoolPages int
	// DiskService is the per-I/O service time.
	DiskService dist.Distribution
	// LogService is the per-commit log write time.
	LogService dist.Distribution
	// Clients is the TPC-specified client population (the paper uses
	// 100 experimentally for all workloads).
	Clients int
	// CanonicalKeyOrder makes every transaction acquire its lock keys
	// in ascending order, the deadlock-avoiding access discipline that
	// TPC-C's warehouse→district→stock schema imposes naturally.
	// TPC-W's cart/checkout updates have no such canonical order, so
	// the ordering mix leaves this false and exhibits the paper's
	// lock-thrashing decline at high MPLs (Fig. 5).
	CanonicalKeyOrder bool
}

// Pattern returns the buffer-pool access pattern.
func (s Spec) Pattern() bufferpool.AccessPattern {
	return bufferpool.AccessPattern{DBPages: s.DBPages, HotFrac: s.HotFrac, HotAccess: s.HotAccess}
}

// MissRatio estimates the steady-state buffer-pool miss ratio under
// this spec's default pool size (Che approximation).
func (s Spec) MissRatio() float64 {
	return s.Pattern().ExpectedMissRatio(s.BufferPoolPages)
}

// MeanCPUDemand returns the mix-average CPU seconds per transaction.
func (s Spec) MeanCPUDemand() float64 {
	total := 0.0
	for _, t := range s.Types {
		total += t.Prob * float64(t.Ops) * t.CPUPerOp.Mean()
	}
	return total
}

// MeanPageAccesses returns the mix-average page accesses per
// transaction.
func (s Spec) MeanPageAccesses() float64 {
	total := 0.0
	for _, t := range s.Types {
		total += t.Prob * float64(t.Ops*t.PagesPerOp)
	}
	return total
}

// MeanIODemand returns the mix-average disk seconds per transaction
// under the default pool size (misses × disk service), excluding the
// commit log write.
func (s Spec) MeanIODemand() float64 {
	return s.MeanPageAccesses() * s.MissRatio() * s.DiskService.Mean()
}

// Validate checks the mix probabilities and parameters.
func (s Spec) Validate() error {
	if len(s.Types) == 0 {
		return fmt.Errorf("workload %s: no transaction types", s.Name)
	}
	total := 0.0
	for _, t := range s.Types {
		if t.Prob < 0 || t.Ops < 1 || t.CPUPerOp == nil {
			return fmt.Errorf("workload %s: bad type %+v", s.Name, t.Name)
		}
		if t.WriteFrac < 0 || t.WriteFrac > 1 || t.HotKeyProb < 0 || t.HotKeyProb > 1 {
			return fmt.Errorf("workload %s type %s: probabilities out of range", s.Name, t.Name)
		}
		total += t.Prob
	}
	if total < 0.999 || total > 1.001 {
		return fmt.Errorf("workload %s: mix probabilities sum to %v", s.Name, total)
	}
	if s.DBPages < 1 || s.BufferPoolPages < 1 {
		return fmt.Errorf("workload %s: invalid sizing", s.Name)
	}
	if err := (s.Pattern()).Validate(); err != nil {
		return err
	}
	return nil
}

// Generator draws transaction profiles from a Spec.
type Generator struct {
	Spec Spec
	// HighFrac is the fraction of transactions tagged High priority
	// (the paper tags 10% at random).
	HighFrac float64
	rng      *sim.RNG
	cum      []float64
	pattern  bufferpool.AccessPattern
	missEst  float64
	coldSeq  uint64
	// keys is scratch for one profile's lock keys (sorted under
	// CanonicalKeyOrder before they are copied into the ops).
	keys []uint64
	// mix, when non-nil, replaces the two-class HighFrac tagging with
	// an N-tenant arrival mix (see SetMix / TenantMix in tenant.go).
	mix     []TenantMix
	mixCum  []float64
	mixSize []dist.Distribution
}

// NewGenerator validates the spec and returns a deterministic
// generator seeded by seed.
func NewGenerator(spec Spec, seed uint64) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		Spec:     spec,
		HighFrac: 0.1,
		rng:      sim.NewRNG(seed, 7),
		pattern:  spec.Pattern(),
		missEst:  spec.MissRatio(),
	}
	total := 0.0
	for _, t := range spec.Types {
		total += t.Prob
		g.cum = append(g.cum, total)
	}
	g.cum[len(g.cum)-1] = 1
	return g, nil
}

// Next draws a profile, tagging it High with probability HighFrac —
// or, when a tenant mix is installed (SetMix), drawing the tenant
// class from the mix shares and applying the tenant's size scaling.
func (g *Generator) Next() dbms.TxnProfile {
	if g.mix != nil {
		return g.nextTenant()
	}
	class := lockmgr.Low
	if g.rng.Float64() < g.HighFrac {
		class = lockmgr.High
	}
	return g.NextWithClass(class)
}

// NextWithClass draws a profile with a fixed class.
func (g *Generator) NextWithClass(class lockmgr.Class) dbms.TxnProfile {
	u := g.rng.Float64()
	ti := len(g.Spec.Types) - 1
	for i, c := range g.cum {
		if u < c {
			ti = i
			break
		}
	}
	tt := g.Spec.Types[ti]
	ops := make([]dbms.Op, tt.Ops)
	keys := slices.Grow(g.keys[:0], tt.Ops)[:tt.Ops]
	g.keys = keys
	// One page slab per profile; each op gets a capacity-capped window.
	slab := make([]uint64, tt.Ops*tt.PagesPerOp)
	demand := 0.0
	for i := range ops {
		if g.rng.Float64() < tt.HotKeyProb && g.Spec.HotLockKeys > 0 {
			keys[i] = g.rng.Uint64() % g.Spec.HotLockKeys
		} else {
			// Cold keys are effectively unique: allocate from a
			// monotonically increasing space far above the hot keys.
			g.coldSeq++
			keys[i] = 1<<32 + g.coldSeq
		}
		pages := slab[i*tt.PagesPerOp : (i+1)*tt.PagesPerOp : (i+1)*tt.PagesPerOp]
		for p := range pages {
			pages[p] = g.pattern.Sample(g.rng)
		}
		cpu := tt.CPUPerOp.Sample(g.rng)
		demand += cpu + float64(len(pages))*g.missEst*g.Spec.DiskService.Mean()
		ops[i] = dbms.Op{
			Write:   g.rng.Float64() < tt.WriteFrac,
			CPUWork: cpu,
			Pages:   pages,
		}
	}
	// Under CanonicalKeyOrder, assign lock keys in ascending order
	// across the transaction's operations: contention (queueing on hot
	// locks) is preserved; only the acquisition ORDER is canonicalized,
	// which is what keeps TPC-C's deadlock rate low despite hot spots.
	if g.Spec.CanonicalKeyOrder {
		slices.Sort(keys)
	}
	for i := range ops {
		ops[i].Key = keys[i]
	}
	return dbms.TxnProfile{Ops: ops, Class: class, EstimatedDemand: demand}
}

// Sink accepts generated transactions: the single-backend frontend
// (dbfe.Frontend) and the sharded cluster dispatcher
// (cluster.Dispatcher) both satisfy it, which is what lets one driver
// implementation feed either a lone DBMS or a whole fleet of shards.
type Sink interface {
	// Submit delivers a transaction for execution.
	Submit(dbms.TxnProfile) *dbfe.Txn
	// SubmitCB is Submit with a completion callback (closed-loop
	// clients cycle on it). cb runs before the sink-wide completion
	// hook.
	SubmitCB(dbms.TxnProfile, func(*dbfe.Txn)) *dbfe.Txn
}

// Driver is the common control surface of the workload drivers, which
// is what lets the scenario runner treat a phase's traffic source
// uniformly. Start launches the traffic, Stop ends it for good, and
// Pause/Resume suspend and revive it mid-run (a scenario phase that
// silences one source while another takes over). All drivers are
// single-goroutine: they run inside their engine's event loop.
type Driver interface {
	// Start launches the traffic at the engine's current time. Call
	// exactly once.
	Start()
	// Stop permanently ends new submissions; in-flight work completes
	// normally.
	Stop()
	// Pause suspends new submissions until Resume. Pausing a stopped
	// driver is a no-op.
	Pause()
	// Resume revives a paused driver. Resuming a running or stopped
	// driver is a no-op.
	Resume()
}

// ClosedDriver runs a fixed population of clients against a frontend:
// each client submits a transaction, waits for its completion, thinks,
// and repeats — the paper's Section 3.1 closed system with 100 clients.
type ClosedDriver struct {
	eng     *sim.Engine
	fe      Sink
	gen     *Generator
	clients int
	think   dist.Distribution
	rng     *sim.RNG
	stopped bool
	paused  bool
	// parked counts clients that completed a transaction while paused;
	// Resume restarts exactly these.
	parked int
}

// NewClosedDriver builds a driver with the given client count and
// think-time distribution (use dist.NewDeterministic(0) for no think).
func NewClosedDriver(eng *sim.Engine, fe Sink, gen *Generator, clients int, think dist.Distribution) *ClosedDriver {
	if clients < 1 {
		panic(fmt.Sprintf("workload: clients %d must be >= 1", clients))
	}
	if think == nil {
		think = dist.NewDeterministic(0)
	}
	return &ClosedDriver{eng: eng, fe: fe, gen: gen, clients: clients, think: think, rng: sim.NewRNG(gen.rng.Uint64(), 9)}
}

// Start launches all clients at time zero.
func (d *ClosedDriver) Start() {
	for i := 0; i < d.clients; i++ {
		d.cycle()
	}
}

// Stop prevents clients from submitting further transactions.
func (d *ClosedDriver) Stop() { d.stopped = true }

// Pause parks each client as its current transaction (or think time)
// finishes; no new transactions are submitted until Resume.
func (d *ClosedDriver) Pause() {
	if !d.stopped {
		d.paused = true
	}
}

// Resume restarts every parked client at the engine's current time.
func (d *ClosedDriver) Resume() {
	if d.stopped || !d.paused {
		return
	}
	d.paused = false
	n := d.parked
	d.parked = 0
	for i := 0; i < n; i++ {
		d.cycle()
	}
}

func (d *ClosedDriver) cycle() {
	if d.stopped {
		return
	}
	if d.paused {
		d.parked++
		return
	}
	d.fe.SubmitCB(d.gen.Next(), func(*dbfe.Txn) {
		if d.stopped {
			return
		}
		if d.paused {
			d.parked++
			return
		}
		z := d.think.Sample(d.rng)
		if z <= 0 {
			d.cycle()
			return
		}
		d.eng.After(z, func() { d.cycle() })
	})
}

// OpenDriver submits transactions as a Poisson process — the paper's
// Section 3.2 open system.
type OpenDriver struct {
	eng     *sim.Engine
	fe      Sink
	gen     *Generator
	lambda  float64
	rng     *sim.RNG
	stopped bool
	paused  bool
	pending sim.Handle
	arrived uint64
	limit   uint64 // 0 = unlimited
}

// NewOpenDriver builds a Poisson driver with rate lambda (> 0)
// transactions per second. limit caps total arrivals (0 = none).
func NewOpenDriver(eng *sim.Engine, fe Sink, gen *Generator, lambda float64, limit uint64) *OpenDriver {
	if lambda <= 0 {
		panic(fmt.Sprintf("workload: lambda %v must be positive", lambda))
	}
	return &OpenDriver{eng: eng, fe: fe, gen: gen, lambda: lambda, rng: sim.NewRNG(gen.rng.Uint64(), 13), limit: limit}
}

// Start schedules the first arrival.
func (d *OpenDriver) Start() { d.next() }

// Stop halts future arrivals.
func (d *OpenDriver) Stop() { d.stopped = true }

// Pause cancels the pending arrival; the Poisson process is memoryless,
// so Resume simply draws a fresh exponential gap.
func (d *OpenDriver) Pause() {
	if d.stopped || d.paused {
		return
	}
	d.paused = true
	d.eng.Cancel(d.pending)
}

// Resume restarts arrivals from the engine's current time.
func (d *OpenDriver) Resume() {
	if d.stopped || !d.paused {
		return
	}
	d.paused = false
	d.next()
}

// Arrived returns the number of arrivals so far.
func (d *OpenDriver) Arrived() uint64 { return d.arrived }

func (d *OpenDriver) next() {
	if d.stopped || d.paused || (d.limit > 0 && d.arrived >= d.limit) {
		return
	}
	d.pending = d.eng.After(d.rng.ExpFloat64()/d.lambda, func() {
		if d.stopped || d.paused || (d.limit > 0 && d.arrived >= d.limit) {
			return
		}
		d.arrived++
		d.fe.Submit(d.gen.Next())
		d.next()
	})
}
