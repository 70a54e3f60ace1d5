package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"extsched/internal/sim"
)

// delayBackend completes each admitted item after its SizeHint seconds
// of virtual time — an infinite-capacity delay server. The frontend's
// MPL is the only concurrency limit in these tests, which is exactly
// what makes gate semantics easy to assert. That core's own tests need
// no simulated DBMS is the point of the backend abstraction.
type delayBackend struct {
	eng *sim.Engine
	fe  *Frontend
}

func (b *delayBackend) Exec(it *Item) {
	start := b.eng.Now()
	b.eng.After(it.SizeHint, func() {
		b.fe.Complete(it, Outcome{InsideTime: b.eng.Now() - start})
	})
}

// rig builds an engine + delay backend + frontend for policy tests.
func rig(t *testing.T, mpl int, policy Policy) (*sim.Engine, *Frontend) {
	t.Helper()
	eng := sim.NewEngine()
	be := &delayBackend{eng: eng}
	fe := New(eng.Clock(), be, mpl, policy)
	be.fe = fe
	return eng, fe
}

// submit files a work item of the given size and class and returns it.
func submit(fe *Frontend, size float64, class Class) *Item {
	it := &Item{Class: class, SizeHint: size}
	fe.Submit(it, nil)
	return it
}

func TestMPLGating(t *testing.T) {
	eng, fe := rig(t, 2, nil)
	for i := 0; i < 5; i++ {
		submit(fe, 1.0, ClassLow)
	}
	if fe.Inside() != 2 {
		t.Errorf("inside = %d, want 2 (MPL)", fe.Inside())
	}
	if fe.QueueLen() != 3 {
		t.Errorf("queue = %d, want 3", fe.QueueLen())
	}
	eng.RunAll()
	if fe.Metrics().Completed != 5 {
		t.Errorf("completed = %d, want 5", fe.Metrics().Completed)
	}
	if fe.Inside() != 0 || fe.QueueLen() != 0 {
		t.Error("frontend not drained")
	}
}

func TestUnlimitedMPL(t *testing.T) {
	_, fe := rig(t, 0, nil)
	for i := 0; i < 10; i++ {
		submit(fe, 1.0, ClassLow)
	}
	if fe.Inside() != 10 {
		t.Errorf("inside = %d, want 10 (no limit)", fe.Inside())
	}
}

func TestMPL1IsSerial(t *testing.T) {
	eng, fe := rig(t, 1, nil)
	var finishes []float64
	fe.OnComplete = func(it *Item) { finishes = append(finishes, it.Complete) }
	for i := 0; i < 3; i++ {
		submit(fe, 1.0, ClassLow)
	}
	eng.RunAll()
	want := []float64{1, 2, 3}
	for i, w := range want {
		if math.Abs(finishes[i]-w) > 1e-9 {
			t.Errorf("finish[%d] = %v, want %v", i, finishes[i], w)
		}
	}
}

func TestResponseTimeIncludesExternalWait(t *testing.T) {
	eng, fe := rig(t, 1, nil)
	submit(fe, 1.0, ClassLow)
	it := submit(fe, 1.0, ClassLow)
	eng.RunAll()
	if math.Abs(it.ResponseTime()-2.0) > 1e-9 {
		t.Errorf("response time = %v, want 2.0 (1 wait + 1 service)", it.ResponseTime())
	}
	if math.Abs(it.ExternalWait()-1.0) > 1e-9 {
		t.Errorf("external wait = %v, want 1.0", it.ExternalWait())
	}
	if math.Abs(it.Outcome.InsideTime-1.0) > 1e-9 {
		t.Errorf("inside time = %v, want 1.0", it.Outcome.InsideTime)
	}
}

func TestRaisingMPLDispatchesImmediately(t *testing.T) {
	_, fe := rig(t, 1, nil)
	for i := 0; i < 4; i++ {
		submit(fe, 1.0, ClassLow)
	}
	if fe.Inside() != 1 {
		t.Fatalf("inside = %d, want 1", fe.Inside())
	}
	fe.SetMPL(3)
	if fe.Inside() != 3 {
		t.Errorf("inside = %d after raise, want 3", fe.Inside())
	}
}

func TestLoweringMPLDrainsGradually(t *testing.T) {
	eng, fe := rig(t, 3, nil)
	for i := 0; i < 6; i++ {
		submit(fe, 1.0, ClassLow)
	}
	fe.SetMPL(1)
	if fe.Inside() != 3 {
		t.Errorf("inside = %d right after lowering, want 3 (no preemption)", fe.Inside())
	}
	eng.RunAll()
	if fe.Metrics().Completed != 6 {
		t.Errorf("completed = %d, want 6", fe.Metrics().Completed)
	}
}

func TestPriorityPolicyOrdersHighFirst(t *testing.T) {
	eng, fe := rig(t, 1, NewPriority())
	var order []Class
	fe.OnComplete = func(it *Item) { order = append(order, it.Class) }
	// Occupy the server, then queue low, low, high: high must go next.
	submit(fe, 1.0, ClassLow)
	submit(fe, 1.0, ClassLow)
	submit(fe, 1.0, ClassLow)
	submit(fe, 1.0, ClassHigh)
	eng.RunAll()
	want := []Class{ClassLow, ClassHigh, ClassLow, ClassLow}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion classes = %v, want %v", order, want)
		}
	}
}

func TestSJFPolicyOrdering(t *testing.T) {
	eng, fe := rig(t, 1, NewSJF())
	var order []float64
	fe.OnComplete = func(it *Item) { order = append(order, it.SizeHint) }
	submit(fe, 0.5, ClassLow) // occupies server
	submit(fe, 3.0, ClassLow)
	submit(fe, 1.0, ClassLow)
	submit(fe, 2.0, ClassLow)
	eng.RunAll()
	want := []float64{0.5, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("SJF order = %v, want %v", order, want)
		}
	}
}

func TestSJFTieBreakFIFO(t *testing.T) {
	p := NewSJF()
	a := &Item{SizeHint: 1, seq: 1}
	b := &Item{SizeHint: 1, seq: 2}
	p.Push(b)
	p.Push(a)
	if got := p.Pop(); got != a {
		t.Error("SJF tie should break by arrival order")
	}
}

func TestPoliciesEmptyPop(t *testing.T) {
	for _, p := range []Policy{NewFIFO(), NewPriority(), NewSJF()} {
		if p.Pop() != nil {
			t.Errorf("%s: Pop on empty should be nil", p.Name())
		}
		if p.Len() != 0 {
			t.Errorf("%s: Len on empty = %d", p.Name(), p.Len())
		}
	}
}

func TestNewPolicyByName(t *testing.T) {
	for name, want := range map[string]string{
		"": "fifo", "fifo": "fifo", "priority": "priority", "sjf": "sjf", "wfq": "wfq",
	} {
		p, err := NewPolicy(name, nil)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Errorf("NewPolicy(%q).Name() = %q, want %q", name, p.Name(), want)
		}
	}
	if _, err := NewPolicy("zzz", nil); err == nil {
		t.Error("unknown policy name accepted")
	}
}

func TestPolicyConservationProperty(t *testing.T) {
	// Push/pop conservation under random interleavings for all
	// policies: every pushed item pops exactly once.
	g := sim.NewRNG(3, 0)
	for _, mk := range []func() Policy{
		func() Policy { return NewFIFO() },
		func() Policy { return NewPriority() },
		func() Policy { return NewSJF() },
	} {
		p := mk()
		pushed := map[*Item]bool{}
		popped := 0
		var seq uint64
		for i := 0; i < 2000; i++ {
			if g.IntN(2) == 0 {
				class := ClassLow
				if g.IntN(5) == 0 {
					class = ClassHigh
				}
				it := &Item{SizeHint: g.Float64(), Class: class, seq: seq}
				seq++
				pushed[it] = true
				p.Push(it)
			} else if it := p.Pop(); it != nil {
				if !pushed[it] {
					t.Fatalf("%s: popped unknown item", p.Name())
				}
				delete(pushed, it)
				popped++
			}
		}
		for it := p.Pop(); it != nil; it = p.Pop() {
			if !pushed[it] {
				t.Fatalf("%s: popped unknown item at drain", p.Name())
			}
			delete(pushed, it)
			popped++
		}
		if len(pushed) != 0 {
			t.Errorf("%s: %d items lost", p.Name(), len(pushed))
		}
	}
}

func TestMetricsWindowReset(t *testing.T) {
	eng, fe := rig(t, 1, nil)
	submit(fe, 1.0, ClassLow)
	eng.RunAll()
	if fe.Metrics().Completed != 1 {
		t.Fatal("first completion not recorded")
	}
	fe.ResetMetrics()
	if fe.Metrics().Completed != 0 {
		t.Error("reset did not clear completions")
	}
	submit(fe, 1.0, ClassLow)
	eng.RunAll()
	m := fe.Metrics()
	if m.Completed != 1 {
		t.Errorf("completed = %d in new window, want 1", m.Completed)
	}
	// Throughput = 1 completion / 1 second window.
	if math.Abs(m.Throughput()-1.0) > 1e-9 {
		t.Errorf("throughput = %v, want 1.0", m.Throughput())
	}
}

func TestPerClassMetrics(t *testing.T) {
	eng, fe := rig(t, 0, nil)
	submit(fe, 1.0, ClassHigh)
	submit(fe, 1.0, ClassLow)
	eng.RunAll()
	m := fe.Metrics()
	high, low := m.ClassMetric(ClassHigh).Completed(), m.ClassMetric(ClassLow).Completed()
	if high != 1 || low != 1 {
		t.Errorf("class counts = %d/%d, want 1/1", high, low)
	}
	if m.All.Count() != 2 {
		t.Errorf("all count = %d, want 2", m.All.Count())
	}
}

func TestNegativeMPLPanics(t *testing.T) {
	_, fe := rig(t, 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("negative MPL did not panic")
		}
	}()
	fe.SetMPL(-1)
}

func TestAdmissionControlDrops(t *testing.T) {
	eng, fe := rig(t, 1, nil)
	fe.SetQueueLimit(2)
	var droppedItems int
	fe.OnDrop = func(*Item) { droppedItems++ }
	// 1 dispatches, 2 queue, 2 drop.
	admitted := 0
	for i := 0; i < 5; i++ {
		it := &Item{SizeHint: 1.0}
		if fe.Submit(it, nil) {
			admitted++
		}
	}
	if admitted != 3 {
		t.Errorf("admitted = %d, want 3", admitted)
	}
	if fe.QueueLen() != 2 {
		t.Errorf("queue = %d, want 2", fe.QueueLen())
	}
	if fe.Dropped() != 2 || droppedItems != 2 {
		t.Errorf("dropped = %d/%d, want 2/2", fe.Dropped(), droppedItems)
	}
	eng.RunAll()
	if fe.Metrics().Completed != 3 {
		t.Errorf("completed = %d, want 3 (admitted only)", fe.Metrics().Completed)
	}
}

func TestAdmissionControlDisabledByDefault(t *testing.T) {
	_, fe := rig(t, 1, nil)
	for i := 0; i < 50; i++ {
		submit(fe, 1.0, ClassLow)
	}
	if fe.Dropped() != 0 {
		t.Errorf("dropped = %d without a queue limit", fe.Dropped())
	}
	if fe.QueueLen() != 49 {
		t.Errorf("queue = %d, want 49", fe.QueueLen())
	}
}

func TestNegativeQueueLimitPanics(t *testing.T) {
	_, fe := rig(t, 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("negative queue limit did not panic")
		}
	}()
	fe.SetQueueLimit(-1)
}

func TestCancelQueuedWithdraws(t *testing.T) {
	eng, fe := rig(t, 1, nil)
	running := submit(fe, 1.0, ClassLow)
	waiting := submit(fe, 1.0, ClassLow)
	if fe.CancelQueued(running) {
		t.Error("canceled a dispatched item")
	}
	if !fe.CancelQueued(waiting) {
		t.Fatal("could not cancel a queued item")
	}
	if fe.CancelQueued(waiting) {
		t.Error("double cancel succeeded")
	}
	if fe.QueueLen() != 0 {
		t.Errorf("queue = %d after cancel, want 0", fe.QueueLen())
	}
	if fe.Canceled() != 1 {
		t.Errorf("canceled = %d, want 1", fe.Canceled())
	}
	eng.RunAll()
	// Only the running item completes; the withdrawn one never
	// consumes a slot and never hits the metrics.
	if got := fe.Metrics().Completed; got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
	if fe.Inside() != 0 {
		t.Errorf("inside = %d after drain, want 0", fe.Inside())
	}
}

func TestCancelQueuedSkippedInOrder(t *testing.T) {
	eng, fe := rig(t, 1, nil)
	var order []*Item
	fe.OnComplete = func(it *Item) { order = append(order, it) }
	a := submit(fe, 1.0, ClassLow)
	b := submit(fe, 1.0, ClassLow)
	c := submit(fe, 1.0, ClassLow)
	fe.CancelQueued(b)
	eng.RunAll()
	if len(order) != 2 || order[0] != a || order[1] != c {
		t.Errorf("completion order wrong after mid-queue cancel: %v", order)
	}
}

// wallBackend completes items on separate goroutines after a tiny real
// delay — the shape of a live gate backend.
type wallBackend struct {
	fe *Frontend
	wg sync.WaitGroup
}

func (b *wallBackend) Exec(it *Item) {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.fe.Complete(it, Outcome{InsideTime: 0.0001})
	}()
}

// TestConcurrentSubmitComplete hammers the frontend from many
// goroutines over the wall clock; run with -race. It asserts the gate
// invariant (completions equal submissions) survives concurrency.
func TestConcurrentSubmitComplete(t *testing.T) {
	be := &wallBackend{}
	fe := New(sim.NewWallClock(), be, 4, nil)
	be.fe = fe
	var completions atomic.Uint64
	fe.OnComplete = func(*Item) { completions.Add(1) }
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				it := &Item{Class: Class(g % 2), SizeHint: float64(i%7) * 0.001}
				fe.Submit(it, nil)
				if i%50 == 0 {
					fe.SetMPL(2 + i%6)
				}
			}
		}(g)
	}
	wg.Wait()
	// All submissions eventually complete (backend goroutines drain the
	// queue as slots free up).
	deadline := make(chan struct{})
	go func() { be.wg.Wait(); close(deadline) }()
	<-deadline
	for fe.Inside() > 0 || fe.QueueLen() > 0 {
		be.wg.Wait()
	}
	if got := completions.Load(); got != goroutines*perG {
		t.Errorf("completions = %d, want %d", got, goroutines*perG)
	}
	m := fe.Metrics()
	if m.Completed != goroutines*perG {
		t.Errorf("metrics completed = %d, want %d", m.Completed, goroutines*perG)
	}
}

func TestCancelCompactionBoundsQueue(t *testing.T) {
	// A stalled server (one huge item holding the MPL-1 slot) with a
	// storm of canceled SJF entries: lazy head-of-queue discard alone
	// would never purge them (nothing dispatches), so bulk compaction
	// must keep the policy's raw length bounded.
	eng, fe := rig(t, 1, NewSJF())
	submit(fe, 1e9, ClassLow) // occupies the slot until the far future
	const storm = 5000
	for i := 0; i < storm; i++ {
		it := submit(fe, float64(i+1), ClassLow)
		if !fe.CancelQueued(it) {
			t.Fatal("queued item refused cancellation")
		}
	}
	if raw := fe.Policy().Len(); raw > 2*compactThreshold {
		t.Errorf("policy retains %d entries after %d cancellations, want <= %d",
			raw, storm, 2*compactThreshold)
	}
	if fe.QueueLen() != 0 {
		t.Errorf("QueueLen = %d, want 0 (all canceled)", fe.QueueLen())
	}
	if fe.Canceled() != storm {
		t.Errorf("canceled = %d, want %d", fe.Canceled(), storm)
	}
	_ = eng
}

func TestCancelCompactionKeepsLiveItems(t *testing.T) {
	// Interleave live and canceled items past the compaction threshold:
	// compaction must drop only the canceled ones and preserve policy
	// order among the rest.
	eng, fe := rig(t, 1, nil)
	submit(fe, 1.0, ClassLow) // occupy the slot
	var live []*Item
	for i := 0; i < 300; i++ {
		it := submit(fe, 1.0, ClassLow)
		if i%2 == 0 {
			fe.CancelQueued(it)
		} else {
			live = append(live, it)
		}
	}
	if got := fe.QueueLen(); got != len(live) {
		t.Fatalf("QueueLen = %d, want %d live", got, len(live))
	}
	var order []*Item
	fe.OnComplete = func(it *Item) { order = append(order, it) }
	eng.RunAll()
	if len(order) != len(live)+1 {
		t.Fatalf("completions = %d, want %d", len(order), len(live)+1)
	}
	for i, it := range live {
		if order[i+1] != it {
			t.Fatalf("FIFO order broken at %d after compaction", i)
		}
	}
}

func TestWFQRefundsCanceledCharge(t *testing.T) {
	// White box: a canceled item's enqueue-time charge is refunded at
	// discard, so the class's next item starts at the virtual time
	// instead of behind a mortgage it never consumed.
	p := NewWFQ(nil)
	huge := &Item{Class: ClassHigh, SizeHint: 1000, seq: 1}
	p.Push(huge)
	if got := p.classF[ClassHigh]; got != 1000 {
		t.Fatalf("finish tag after push = %v, want 1000", got)
	}
	p.discarded(huge)
	if got := p.classF[ClassHigh]; got != 0 {
		t.Fatalf("finish tag after refund = %v, want 0 (vtime)", got)
	}
	next := &Item{Class: ClassHigh, SizeHint: 1, seq: 2}
	p.Push(next)
	if got := p.q[0].start; got != 0 {
		t.Errorf("post-refund start tag = %v, want 0", got)
	}
}

func TestWFQFrontendRefundsOnLazyDiscard(t *testing.T) {
	// Integration: the frontend's dispatch-loop discard of a canceled
	// item must trigger the policy refund.
	eng, fe := rig(t, 1, NewWFQ(nil))
	wfq := fe.Policy().(*WFQPolicy)
	submit(fe, 0.5, ClassLow) // occupy the slot
	huge := submit(fe, 1000, ClassHigh)
	fe.CancelQueued(huge)
	if got := wfq.classF[ClassHigh]; got != 1000 {
		t.Fatalf("finish tag = %v before discard, want 1000", got)
	}
	eng.RunAll() // completion pops (and discards) the canceled item
	if got := wfq.classF[ClassHigh]; got != wfq.vtime {
		t.Errorf("finish tag = %v after lazy discard, want vtime %v (refund missing)", got, wfq.vtime)
	}
}

func TestDiscardFreesSlotWithoutMetrics(t *testing.T) {
	// A manual backend: admitted items just pile up until the test
	// completes (or discards) them — the live gate's shape, where
	// Exec only wakes the acquirer.
	eng := sim.NewEngine()
	var admitted []*Item
	fe := New(eng.Clock(), backendFunc(func(it *Item) { admitted = append(admitted, it) }), 1, nil)
	first := submit(fe, 1.0, ClassLow)
	second := submit(fe, 1.0, ClassLow)
	hooks := 0
	fe.OnComplete = func(*Item) { hooks++ }
	if len(admitted) != 1 || admitted[0] != first {
		t.Fatalf("admitted = %v, want [first]", admitted)
	}
	fe.Discard(first) // as if the admitted caller vanished
	if len(admitted) != 2 || admitted[1] != second {
		t.Fatal("discard did not refill the slot from the queue")
	}
	if fe.Inside() != 1 {
		t.Errorf("inside = %d after discard, want 1", fe.Inside())
	}
	if got := fe.Metrics().Completed; got != 0 {
		t.Errorf("discard recorded a completion: %d", got)
	}
	if fe.Canceled() != 1 {
		t.Errorf("canceled = %d, want 1", fe.Canceled())
	}
	fe.Complete(second, Outcome{})
	if hooks != 1 {
		t.Errorf("OnComplete ran %d times, want 1 (discard must not fire hooks)", hooks)
	}
	m := fe.Metrics()
	if m.Completed != 1 {
		t.Errorf("completed = %d, want 1", m.Completed)
	}
}

// backendFunc adapts a func to the Backend interface.
type backendFunc func(*Item)

func (f backendFunc) Exec(it *Item) { f(it) }
