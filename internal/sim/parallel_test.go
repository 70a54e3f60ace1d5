package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// chaosSource is a MessageSource for property testing: per-member
// mailboxes (appended by member events on worker goroutines, exactly
// like the dispatcher's) merged by Flush in (timestamp, member, FIFO)
// order. It checks the conservative-delivery invariants as it goes:
// no buffered message may carry a timestamp beyond the window bound,
// and none may be replayed with the coordinator clock already past it
// — a message from the coordinator's causal past would mean the
// horizon failed to protect it.
type chaosSource struct {
	t       *testing.T
	coord   *Engine
	boxes   [][]float64 // per-member buffered message timestamps
	flushed int
}

func (s *chaosSource) BeginWindows() {}
func (s *chaosSource) EndWindows()   {}

func (s *chaosSource) Flush(bound float64) int {
	n := 0
	cur := make([]int, len(s.boxes))
	for {
		best := -1
		var bt float64
		for i := range s.boxes {
			if cur[i] >= len(s.boxes[i]) {
				continue
			}
			if at := s.boxes[i][cur[i]]; best < 0 || at < bt {
				best, bt = i, at
			}
		}
		if best < 0 {
			break
		}
		cur[best]++
		if bt > bound {
			s.t.Errorf("message at %v buffered beyond the window bound %v", bt, bound)
		}
		if bt < s.coord.Now() {
			s.t.Errorf("message at %v delivered with the coordinator clock already at %v", bt, s.coord.Now())
		}
		s.coord.AdvanceTo(bt)
		n++
	}
	for i := range s.boxes {
		s.boxes[i] = s.boxes[i][:0]
	}
	s.flushed += n
	return n
}

// TestParallelConservativeDelivery is the property test for the window
// protocol: random ensembles (member counts, event rates, coordinator
// schedules, lockstep toggles, run bounds) must never deliver a
// cross-engine event before the receiver's clock — member-bound
// injections land at or after the member's current time, and
// coordinator-bound messages replay at or after the coordinator's.
// Both directions double-check what Engine.At and Engine.AdvanceTo
// would panic on, so a horizon bug fails with a readable property
// violation rather than a panic deep in the kernel.
func TestParallelConservativeDelivery(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		trial := trial
		rng := NewRNG(uint64(trial)+1, 4242)
		n := 1 + rng.IntN(5)
		coord := NewEngine()
		members := make([]*Engine, n)
		for i := range members {
			members[i] = NewEngine()
		}
		src := &chaosSource{t: t, coord: coord, boxes: make([][]float64, n)}
		pe := NewParallelEngine(coord, members, src)
		defer pe.Close()

		var memberFired, injected, injectedFired atomic.Uint64
		// Each member runs a self-rescheduling chain that buffers a
		// message to the coordinator on a coin flip. The callback runs
		// on a worker goroutine; it may touch only its own member state
		// and its own mailbox (the dispatcher's discipline).
		for i := range members {
			i := i
			m := members[i]
			mrng := NewRNG(uint64(trial)+1, uint64(1000+i))
			rate := 0.5 + 3*mrng.Float64()
			var chain func()
			chain = func() {
				memberFired.Add(1)
				if mrng.IntN(2) == 0 {
					src.boxes[i] = append(src.boxes[i], m.Now())
				}
				m.After(mrng.ExpFloat64()/rate, chain)
			}
			m.After(mrng.ExpFloat64()/rate, chain)
		}
		// The coordinator ticks on its own random schedule; each tick
		// picks a member and injects an event at the coordinator's
		// current instant — which must never be in the member's past.
		crng := NewRNG(uint64(trial)+1, 7)
		var tick func()
		tick = func() {
			j := crng.IntN(n)
			m := members[j]
			at := coord.Now()
			if m.Now() > at {
				t.Errorf("trial %d: injecting at %v but member %d clock already at %v", trial, at, j, m.Now())
			}
			injected.Add(1)
			m.At(at, func() {
				if m.Now() != at {
					t.Errorf("trial %d: injected event fired at %v, scheduled for %v", trial, m.Now(), at)
				}
				injectedFired.Add(1)
			})
			coord.After(0.1+crng.ExpFloat64(), tick)
		}
		coord.After(crng.ExpFloat64(), tick)

		// Random run bounds, with the horizon rule toggling between
		// coordinator-horizon and lockstep along the way.
		now := 0.0
		for step := 0; step < 8; step++ {
			pe.SetLockstep(crng.IntN(2) == 0)
			now += 0.5 + 4*crng.Float64()
			pe.Run(now)
			if got := coord.Now(); got != now {
				t.Fatalf("trial %d: coordinator clock %v after Run(%v)", trial, got, now)
			}
			for j, m := range members {
				if got := m.Now(); got != now {
					t.Fatalf("trial %d: member %d clock %v after Run(%v)", trial, j, got, now)
				}
			}
		}
		if memberFired.Load() == 0 || injected.Load() == 0 || src.flushed == 0 {
			t.Fatalf("trial %d: inert ensemble (members %d, injected %d, flushed %d)",
				trial, memberFired.Load(), injected.Load(), src.flushed)
		}
		if injectedFired.Load() != injected.Load() {
			t.Fatalf("trial %d: %d injected, %d fired", trial, injected.Load(), injectedFired.Load())
		}
	}
}

// nullSource is the no-op boundary for kernel-only benchmarks.
type nullSource struct{}

func (nullSource) BeginWindows()     {}
func (nullSource) Flush(float64) int { return 0 }
func (nullSource) EndWindows()       {}

// TestParallelEngineRunMatchesSequential pins the window protocol
// against the single-engine semantics on a deterministic ensemble: the
// same event set run parallel and sequential fires the same count and
// lands every clock on the bound.
func TestParallelEngineRunMatchesSequential(t *testing.T) {
	build := func() (*Engine, []*Engine) {
		coord := NewEngine()
		members := []*Engine{NewEngine(), NewEngine()}
		for i, m := range members {
			m := m
			d := 0.3 + 0.2*float64(i)
			var chain func()
			chain = func() { m.After(d, chain) }
			m.After(d, chain)
		}
		var tick func()
		tick = func() { coord.After(1.0, tick) }
		coord.After(1.0, tick)
		return coord, members
	}

	coord, members := build()
	pe := NewParallelEngine(coord, members, nullSource{})
	defer pe.Close()
	parFired := pe.Run(50)

	scoord, smembers := build()
	var seqFired uint64
	seqFired += scoord.Run(50)
	for _, m := range smembers {
		seqFired += m.Run(50)
	}
	if parFired != seqFired {
		t.Errorf("parallel fired %d events, sequential %d", parFired, seqFired)
	}
	if pe.Processed() != parFired {
		t.Errorf("Processed() = %d, fired %d", pe.Processed(), parFired)
	}
}

// BenchmarkParallelWindowEvent measures the per-event overhead of the
// window protocol on the intra-window hot path: members busy with
// self-rescheduling chains, the coordinator ticking a horizon schedule,
// no cross-engine messages. In steady state the kernel's free lists
// and the pool's channel handoffs keep this allocation-free — the
// benchcheck gate pins allocs/op at zero.
func BenchmarkParallelWindowEvent(b *testing.B) {
	coord := NewEngine()
	members := make([]*Engine, 4)
	for i := range members {
		m := NewEngine()
		members[i] = m
		var chain func()
		chain = func() { m.After(0.001, chain) }
		m.After(0.001, chain)
	}
	var tick func()
	tick = func() { coord.After(0.05, tick) }
	coord.After(0.05, tick)
	pe := NewParallelEngine(coord, members, nullSource{})
	defer pe.Close()
	// Warm the free lists and the window machinery.
	fired := pe.Run(1)
	bound := coord.Now()
	b.ReportAllocs()
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		bound += 0.05
		total += pe.Run(bound)
	}
	b.StopTimer()
	if total == 0 && fired == 0 {
		b.Fatal("inert benchmark ensemble")
	}
	// Events per op: 4 members x 50 chain steps + 1 coordinator tick.
	b.ReportMetric(float64(total)/float64(b.N), "events/op")
}

// TestParallelCloseBeforeWorkersRun: a run refused up front closes its
// ensemble right after construction, possibly before the worker
// goroutines first run; they must exit cleanly, not index the cleared
// channel slice.
func TestParallelCloseBeforeWorkersRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for i := 0; i < 200; i++ {
		NewParallelEngine(NewEngine(), []*Engine{NewEngine(), NewEngine()}, nil).Close()
	}
	// Give the workers time to run: a crash in one fails the binary.
	time.Sleep(50 * time.Millisecond)
}
