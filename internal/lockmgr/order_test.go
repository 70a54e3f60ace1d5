package lockmgr

import (
	"slices"
	"testing"

	"extsched/internal/sim"
)

// orderRuns is how many identical runs the order tests compare: Go
// randomizes map iteration per range loop, so a path that walks a map
// shows several orders well within 50 runs.
const orderRuns = 50

// powAbortOrder builds four low-class S holders of key 100, each
// blocked on its own X key, then lets a high-class X request on key
// 100 preempt them, and returns the order the aborts arrive in.
func powAbortOrder() []TxnID {
	eng := sim.NewEngine()
	var aborts []TxnID
	var mgr *Manager
	mgr = New(eng, Config{
		Policy:  PriorityFIFO,
		Preempt: true,
		OnAbort: func(t TxnID, r AbortReason) {
			if r == Preempted {
				aborts = append(aborts, t)
			}
			mgr.Release(t)
		},
	})
	// Acquisition order of the shared lock, deliberately not ID order.
	sharers := []TxnID{3, 1, 4, 2}
	for _, id := range sharers {
		mgr.Begin(id, Low)
		mgr.Begin(10+id, Low)
		mgr.Acquire(10+id, 200+uint64(id), X, nil)
	}
	for _, id := range sharers {
		mgr.Acquire(id, 100, S, nil)
	}
	for _, id := range sharers {
		mgr.Acquire(id, 200+uint64(id), X, func() {})
	}
	mgr.Begin(99, High)
	mgr.Acquire(99, 100, X, func() {})
	eng.RunAll()
	return aborts
}

func TestPOWPreemptsInAcquisitionOrder(t *testing.T) {
	want := []TxnID{3, 1, 4, 2}
	for run := 0; run < orderRuns; run++ {
		if got := powAbortOrder(); !slices.Equal(got, want) {
			t.Fatalf("run %d: preemption order %v, want the holders' acquisition order %v", run, got, want)
		}
	}
}

// releaseGrantOrder has txn 1 take X on six keys, queues one waiter
// behind each, releases txn 1 and returns the keys in the order their
// waiters were woken.
func releaseGrantOrder() []uint64 {
	eng := sim.NewEngine()
	mgr := New(eng, Config{OnAbort: func(TxnID, AbortReason) {}})
	keys := []uint64{50, 10, 40, 20, 60, 30}
	mgr.Begin(1, Low)
	for _, k := range keys {
		mgr.Acquire(1, k, X, nil)
	}
	var woken []uint64
	for i, k := range keys {
		id := TxnID(2 + i)
		mgr.Begin(id, Low)
		mgr.Acquire(id, k, X, func() { woken = append(woken, k) })
	}
	mgr.Release(1)
	return woken
}

func TestReleaseGrantsInAcquisitionOrder(t *testing.T) {
	want := []uint64{50, 10, 40, 20, 60, 30}
	for run := 0; run < orderRuns; run++ {
		if got := releaseGrantOrder(); !slices.Equal(got, want) {
			t.Fatalf("run %d: waiters woken for keys %v, want the acquisition order %v", run, got, want)
		}
	}
}

// TestLockPathAllocationFree: with the free lists warm, the
// uncontended Begin/Acquire/Release cycle and a block-then-grant
// handoff allocate nothing.
func TestLockPathAllocationFree(t *testing.T) {
	eng := sim.NewEngine()
	mgr := New(eng, Config{OnAbort: func(TxnID, AbortReason) {}})
	id := TxnID(0)
	uncontended := func() {
		id++
		mgr.Begin(id, Low)
		mgr.Acquire(id, uint64(id%8), X, nil)
		mgr.Acquire(id, 100+uint64(id%8), S, nil)
		mgr.Release(id)
	}
	granted := 0
	onGrant := func() { granted++ }
	handoff := func() {
		a, b := id+1, id+2
		id += 2
		mgr.Begin(a, Low)
		mgr.Begin(b, Low)
		mgr.Acquire(a, 7, X, nil)
		if mgr.Acquire(b, 7, X, onGrant) {
			t.Fatal("conflicting X did not block")
		}
		mgr.Release(a)
		mgr.Release(b)
	}
	for i := 0; i < 100; i++ {
		uncontended()
		handoff()
	}
	if got := testing.AllocsPerRun(1000, uncontended); got != 0 {
		t.Errorf("uncontended Begin/Acquire/Release: %v allocs/op, want 0", got)
	}
	before := granted
	if got := testing.AllocsPerRun(1000, handoff); got != 0 {
		t.Errorf("block-then-grant: %v allocs/op, want 0", got)
	}
	if granted-before != 1001 {
		t.Errorf("granted %d waiters, want 1001", granted-before)
	}
}
