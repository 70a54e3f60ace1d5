// Conservative parallel execution of one simulation run.
//
// A sharded run has a natural decomposition: each shard's
// frontend+backend pair schedules only on its own engine, the drivers
// and the dispatcher schedule only on a coordinator engine, and the
// two sides talk through a narrow boundary (submissions routed to a
// shard; completion/drop/shed notifications coming back). That
// boundary is where classic conservative synchronization
// (Chandy–Misra–Bryant; see Fujimoto's PDES survey) applies: a member
// engine may safely run ahead of the coordinator up to the lookahead
// horizon — the earliest instant at which the coordinator could still
// send it something — and the coordinator may safely consume member
// notifications once every member has advanced past their timestamps.
//
// ParallelEngine implements that as window stepping rather than
// per-link null messages: each pass computes the horizon H, runs every
// member engine (concurrently, on a fixed worker pool) to the
// inclusive bound min(H, until), flushes the member→coordinator
// messages buffered during the window back into the coordinator in
// global timestamp order, and then runs the coordinator itself to the
// bound. Because H is the coordinator's own next event time, every
// coordinator event fires at exactly the bound, where all member
// clocks already stand — so a routed submission can always be injected
// into its member at the coordinator's current time without violating
// the member's clock.
//
// Determinism is the design's acceptance bar, not a side effect: the
// members' event orders are unchanged (each runs its own events in its
// own time order, exactly as they interleave in a single-queue run),
// and the coordinator consumes member messages sorted by (timestamp,
// member index, per-member FIFO order) — a fixed total order that does
// not depend on goroutine scheduling. Runs are therefore bit-identical
// to rerunning the same parallel configuration, and equal to the
// sequential engine whenever no two messages from different members
// share an exact float64 timestamp (with continuous service and
// arrival distributions, ties across members have probability zero;
// the fingerprint equivalence tests verify equality outright).
package sim

import (
	"math"
	"runtime"
)

// MessageSource is the cross-engine boundary the coordinator owns (in
// practice the cluster dispatcher). During member windows, member-side
// hook firings are buffered instead of acted on; Flush replays
// everything buffered so far — all timestamps are <= the window bound
// by construction — into the coordinator in deterministic order,
// advancing the coordinator clock to each message's timestamp before
// delivery. It returns the number of messages delivered.
type MessageSource interface {
	// BeginWindows marks the start of a ParallelEngine.Run: member-side
	// hook effects that touch coordinator state must be buffered from
	// here on. Outside a Run (scenario breakpoints, where every clock
	// stands at the same instant and only the coordinator goroutine is
	// active) hooks take effect inline, exactly as in a sequential run.
	BeginWindows()
	// Flush delivers every buffered message (all <= bound) in global
	// timestamp order and returns how many were delivered.
	Flush(bound float64) int
	// EndWindows marks the end of a Run; hooks act inline again.
	EndWindows()
}

// ParallelEngine advances one coordinator engine and N member engines
// through conservative bounded time windows. It is driven from the
// coordinator's goroutine; the members run on a fixed pool of worker
// goroutines that exists for the engine's lifetime and is parked
// between windows (channel handoffs provide the happens-before edges
// that make member state safely visible to the coordinator and back).
type ParallelEngine struct {
	coord   *Engine
	members []*Engine
	src     MessageSource
	// lockstep widens the horizon rule for phases where members can
	// autonomously trigger coordinator work at member-event times
	// (closed-loop clients cycling on completion): the horizon becomes
	// the global minimum next-event time over every engine, so all
	// replayed messages and all coordinator firings still land exactly
	// on the bound. Zero lookahead, full correctness.
	lockstep bool

	// Worker pool. bound and fired are written by the coordinator
	// before the start signals and by the workers before the done
	// signals, respectively; the channel operations order the accesses.
	nw    int
	bound float64
	start []chan struct{}
	done  chan struct{}
	fired []uint64
}

// NewParallelEngine builds the window coordinator over coord and
// members, with src as the cross-engine message boundary. The worker
// pool is sized min(GOMAXPROCS, len(members)) and fixed for the
// engine's lifetime (members added later share the existing workers).
func NewParallelEngine(coord *Engine, members []*Engine, src MessageSource) *ParallelEngine {
	p := &ParallelEngine{
		coord:   coord,
		members: append([]*Engine(nil), members...),
		src:     src,
	}
	nw := runtime.GOMAXPROCS(0)
	if nw > len(members) {
		nw = len(members)
	}
	if nw < 1 {
		nw = 1
	}
	p.nw = nw
	if nw > 1 {
		p.start = make([]chan struct{}, nw)
		p.done = make(chan struct{}, nw)
		p.fired = make([]uint64, nw)
		for k := 0; k < nw; k++ {
			p.start[k] = make(chan struct{}, 1)
			go p.worker(k, p.start[k])
		}
	}
	return p
}

// Coordinator returns the coordinator engine.
func (p *ParallelEngine) Coordinator() *Engine { return p.coord }

// Members returns the live member engines (shared slice; do not
// mutate).
func (p *ParallelEngine) Members() []*Engine { return p.members }

// AddMember grows the member set mid-run (fleet scale-up). Must be
// called from the coordinator goroutine with the workers parked —
// i.e. from inside a coordinator event or between Run calls — which is
// where every fleet mutation already happens.
func (p *ParallelEngine) AddMember(m *Engine) {
	p.members = append(p.members, m)
}

// SetLockstep selects the horizon rule for the next Run calls: true
// for phases whose completions feed back into the coordinator at
// member-event times (closed-loop phases), false for autonomous-
// arrival phases (open, ramp, burst, trace) where the coordinator's
// own next event bounds the window.
func (p *ParallelEngine) SetLockstep(v bool) { p.lockstep = v }

// worker is one pool goroutine: it owns members k, k+nw, k+2nw, … for
// the window it is signaled into on start, and reports back on the
// done channel. It is handed its start channel rather than reading
// p.start, which Close clears, possibly before the goroutine first
// runs.
func (p *ParallelEngine) worker(k int, start <-chan struct{}) {
	for range start {
		var fired uint64
		for i := k; i < len(p.members); i += p.nw {
			fired += p.members[i].Run(p.bound)
		}
		p.fired[k] = fired
		p.done <- struct{}{}
	}
}

// horizon returns the earliest instant the coordinator could still
// influence a member (or, in lockstep, any engine could influence any
// other): +Inf when nothing bounds the window.
func (p *ParallelEngine) horizon() float64 {
	h := p.coord.NextEventTime()
	if p.lockstep {
		for _, m := range p.members {
			if t := m.NextEventTime(); t < h {
				h = t
			}
		}
	}
	return h
}

// runMembers advances every member engine to the inclusive bound,
// concurrently when the pool has more than one worker, and returns the
// number of member events fired.
func (p *ParallelEngine) runMembers(bound float64) uint64 {
	var fired uint64
	if p.nw <= 1 {
		for _, m := range p.members {
			fired += m.Run(bound)
		}
		return fired
	}
	p.bound = bound
	for k := 0; k < p.nw; k++ {
		p.start[k] <- struct{}{}
	}
	for k := 0; k < p.nw; k++ {
		<-p.done
	}
	for k := 0; k < p.nw; k++ {
		fired += p.fired[k]
	}
	return fired
}

// Run advances the whole ensemble to the inclusive bound until, firing
// every event — coordinator and member — with timestamp <= until, and
// leaves every clock standing exactly at until. It matches the
// sequential Engine.Run contract (inclusive bound, clock lands on the
// bound, monotone across calls) so the runner can drive it through the
// same breakpoint schedule. until must be finite. It returns the total
// number of events fired across all engines.
func (p *ParallelEngine) Run(until float64) uint64 {
	if math.IsNaN(until) || math.IsInf(until, 0) {
		panic("sim: ParallelEngine.Run needs a finite bound")
	}
	p.src.BeginWindows()
	defer p.src.EndWindows()
	var fired uint64
	for !p.coord.Stopped() {
		bound := until
		if h := p.horizon(); h < bound {
			bound = h
		}
		fired += p.runMembers(bound)
		p.src.Flush(bound)
		fired += p.coord.Run(bound)
		if bound < until {
			continue
		}
		// A full pass at the final bound: everything buffered was
		// flushed, so the ensemble is quiescent iff no engine still
		// holds an event at or before until (coordinator firings at the
		// bound may have injected same-instant member events, which the
		// next pass picks up — matching the sequential engine, where a
		// same-instant cascade at the bound fires within the call).
		if p.coord.NextEventTime() > until && !p.anyMemberEventAtOrBefore(until) {
			break
		}
	}
	return fired
}

// anyMemberEventAtOrBefore reports whether a member still has a live
// event at or before t.
func (p *ParallelEngine) anyMemberEventAtOrBefore(t float64) bool {
	for _, m := range p.members {
		if m.NextEventTime() <= t {
			return true
		}
	}
	return false
}

// Close parks the worker pool permanently (the goroutines exit). The
// engine must not be Run again afterwards; call it when the run that
// owns this ensemble finishes.
func (p *ParallelEngine) Close() {
	for _, c := range p.start {
		close(c)
	}
	p.start = nil
}

// Processed returns the total number of events fired across the
// coordinator and every member — the ensemble-wide analogue of
// Engine.Processed, so reports agree with a sequential run's single
// counter.
func (p *ParallelEngine) Processed() uint64 {
	n := p.coord.Processed()
	for _, m := range p.members {
		n += m.Processed()
	}
	return n
}
