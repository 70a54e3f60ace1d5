package lockmgr

import (
	"testing"

	"extsched/internal/sim"
)

// harness wires a Manager with an abort recorder.
type harness struct {
	eng    *sim.Engine
	mgr    *Manager
	aborts map[TxnID]AbortReason
}

func newHarness(policy Policy, preempt bool) *harness {
	h := &harness{eng: sim.NewEngine(), aborts: make(map[TxnID]AbortReason)}
	h.mgr = New(h.eng, Config{
		Policy:  policy,
		Preempt: preempt,
		OnAbort: func(t TxnID, r AbortReason) {
			h.aborts[t] = r
			h.mgr.Release(t)
		},
	})
	return h
}

func TestSharedLocksCoexist(t *testing.T) {
	h := newHarness(FIFO, false)
	h.mgr.Begin(1, Low)
	h.mgr.Begin(2, Low)
	if !h.mgr.Acquire(1, 100, S, nil) {
		t.Fatal("first S should grant")
	}
	if !h.mgr.Acquire(2, 100, S, nil) {
		t.Fatal("second S should grant")
	}
	if h.mgr.Holders(100) != 2 {
		t.Errorf("holders = %d, want 2", h.mgr.Holders(100))
	}
}

func TestExclusiveBlocks(t *testing.T) {
	h := newHarness(FIFO, false)
	h.mgr.Begin(1, Low)
	h.mgr.Begin(2, Low)
	granted2 := false
	if !h.mgr.Acquire(1, 100, X, nil) {
		t.Fatal("first X should grant")
	}
	if h.mgr.Acquire(2, 100, X, func() { granted2 = true }) {
		t.Fatal("conflicting X should block")
	}
	if !h.mgr.Waiting(2) {
		t.Error("txn 2 should be waiting")
	}
	h.mgr.Release(1)
	if !granted2 {
		t.Error("txn 2 should be granted after release")
	}
	if h.mgr.Waiting(2) {
		t.Error("txn 2 should no longer wait")
	}
}

func TestSBlocksXAndFIFOOrder(t *testing.T) {
	h := newHarness(FIFO, false)
	h.mgr.Begin(1, Low)
	h.mgr.Begin(2, Low)
	h.mgr.Begin(3, Low)
	var order []int
	h.mgr.Acquire(1, 5, S, nil)
	h.mgr.Acquire(2, 5, X, func() { order = append(order, 2) })
	h.mgr.Acquire(3, 5, X, func() { order = append(order, 3) })
	h.mgr.Release(1)
	if len(order) != 1 || order[0] != 2 {
		t.Fatalf("after first release, grants = %v, want [2]", order)
	}
	h.mgr.Release(2)
	if len(order) != 2 || order[1] != 3 {
		t.Fatalf("grants = %v, want [2 3]", order)
	}
}

func TestNoSkipOverBlockedHead(t *testing.T) {
	// Holder has X; queue = [X(2), S(3)]. S(3) must NOT be granted
	// before X(2) under FIFO (no starvation of writers).
	h := newHarness(FIFO, false)
	for i := TxnID(1); i <= 3; i++ {
		h.mgr.Begin(i, Low)
	}
	sGranted := false
	h.mgr.Acquire(1, 9, X, nil)
	h.mgr.Acquire(2, 9, X, func() {})
	h.mgr.Acquire(3, 9, S, func() { sGranted = true })
	h.mgr.Release(1)
	if sGranted {
		t.Error("S jumped over queued X head")
	}
}

func TestBatchGrantSharers(t *testing.T) {
	// Holder X; queue = [S, S]: both S granted together on release.
	h := newHarness(FIFO, false)
	for i := TxnID(1); i <= 3; i++ {
		h.mgr.Begin(i, Low)
	}
	granted := 0
	h.mgr.Acquire(1, 9, X, nil)
	h.mgr.Acquire(2, 9, S, func() { granted++ })
	h.mgr.Acquire(3, 9, S, func() { granted++ })
	h.mgr.Release(1)
	if granted != 2 {
		t.Errorf("granted %d sharers, want 2", granted)
	}
}

func TestReacquireHeldIsNoop(t *testing.T) {
	h := newHarness(FIFO, false)
	h.mgr.Begin(1, Low)
	if !h.mgr.Acquire(1, 7, X, nil) {
		t.Fatal("X grant failed")
	}
	if !h.mgr.Acquire(1, 7, S, nil) {
		t.Error("S under own X should be covered")
	}
	if !h.mgr.Acquire(1, 7, X, nil) {
		t.Error("repeat X should be covered")
	}
	if h.mgr.Holding(1) != 1 {
		t.Errorf("holding = %d, want 1", h.mgr.Holding(1))
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	h := newHarness(FIFO, false)
	h.mgr.Begin(1, Low)
	h.mgr.Acquire(1, 7, S, nil)
	if !h.mgr.Acquire(1, 7, X, nil) {
		t.Error("sole-holder upgrade should grant immediately")
	}
}

func TestUpgradeWaitsForOtherSharers(t *testing.T) {
	h := newHarness(FIFO, false)
	h.mgr.Begin(1, Low)
	h.mgr.Begin(2, Low)
	h.mgr.Acquire(1, 7, S, nil)
	h.mgr.Acquire(2, 7, S, nil)
	upgraded := false
	if h.mgr.Acquire(1, 7, X, func() { upgraded = true }) {
		t.Fatal("upgrade with co-sharer should block")
	}
	h.mgr.Release(2)
	if !upgraded {
		t.Error("upgrade should grant after the other sharer leaves")
	}
}

func TestUpgradeJumpsQueue(t *testing.T) {
	// S(1), S(2) hold; X(3) queued; then 1 upgrades. The upgrade must
	// sit ahead of X(3): when 2 releases, 1 gets X first.
	h := newHarness(FIFO, false)
	for i := TxnID(1); i <= 3; i++ {
		h.mgr.Begin(i, Low)
	}
	h.mgr.Acquire(1, 7, S, nil)
	h.mgr.Acquire(2, 7, S, nil)
	x3 := false
	up1 := false
	h.mgr.Acquire(3, 7, X, func() { x3 = true })
	h.mgr.Acquire(1, 7, X, func() { up1 = true })
	h.mgr.Release(2)
	if !up1 {
		t.Error("upgrade not granted after sharer release")
	}
	if x3 {
		t.Error("queued X granted before upgrade")
	}
	h.mgr.Release(1)
	if !x3 {
		t.Error("queued X not granted after upgrader released")
	}
}

func TestDeadlockDetection(t *testing.T) {
	// 1 holds A, 2 holds B; 1 requests B, 2 requests A → cycle; the
	// requester closing the cycle (2) is the victim.
	h := newHarness(FIFO, false)
	h.mgr.Begin(1, Low)
	h.mgr.Begin(2, Low)
	h.mgr.Acquire(1, 1, X, nil)
	h.mgr.Acquire(2, 2, X, nil)
	h.mgr.Acquire(1, 2, X, func() {})
	h.mgr.Acquire(2, 1, X, func() {})
	h.eng.RunAll()
	if len(h.aborts) != 1 {
		t.Fatalf("aborts = %v, want exactly one victim", h.aborts)
	}
	if r, ok := h.aborts[2]; !ok || r != Deadlock {
		t.Errorf("victim = %v, want txn 2 with Deadlock", h.aborts)
	}
	if h.mgr.Stats().Deadlocks != 1 {
		t.Errorf("deadlock count = %d, want 1", h.mgr.Stats().Deadlocks)
	}
}

func TestDeadlockVictimReleaseUnblocks(t *testing.T) {
	h := newHarness(FIFO, false)
	h.mgr.Begin(1, Low)
	h.mgr.Begin(2, Low)
	granted1 := false
	h.mgr.Acquire(1, 1, X, nil)
	h.mgr.Acquire(2, 2, X, nil)
	h.mgr.Acquire(1, 2, X, func() { granted1 = true })
	h.mgr.Acquire(2, 1, X, func() {})
	h.eng.RunAll()
	if !granted1 {
		t.Error("survivor should be granted after victim release")
	}
}

func TestThreeWayDeadlock(t *testing.T) {
	h := newHarness(FIFO, false)
	for i := TxnID(1); i <= 3; i++ {
		h.mgr.Begin(i, Low)
		h.mgr.Acquire(i, uint64(i), X, nil)
	}
	h.mgr.Acquire(1, 2, X, func() {})
	h.mgr.Acquire(2, 3, X, func() {})
	h.mgr.Acquire(3, 1, X, func() {}) // closes the 3-cycle
	h.eng.RunAll()
	if len(h.aborts) != 1 {
		t.Fatalf("aborts = %v, want one victim", h.aborts)
	}
	if _, ok := h.aborts[3]; !ok {
		t.Errorf("victim = %v, want txn 3 (the cycle closer)", h.aborts)
	}
}

func TestUpgradeDeadlock(t *testing.T) {
	// Two S holders both upgrading is a classic deadlock.
	h := newHarness(FIFO, false)
	h.mgr.Begin(1, Low)
	h.mgr.Begin(2, Low)
	h.mgr.Acquire(1, 7, S, nil)
	h.mgr.Acquire(2, 7, S, nil)
	h.mgr.Acquire(1, 7, X, func() {})
	h.mgr.Acquire(2, 7, X, func() {})
	h.eng.RunAll()
	if len(h.aborts) != 1 {
		t.Fatalf("aborts = %v, want one upgrade-deadlock victim", h.aborts)
	}
}

func TestPriorityQueueOrdering(t *testing.T) {
	// Low X queued first, then High X: high must be granted first
	// under PriorityFIFO.
	h := newHarness(PriorityFIFO, false)
	h.mgr.Begin(1, Low)
	h.mgr.Begin(2, Low)
	h.mgr.Begin(3, High)
	var order []int
	h.mgr.Acquire(1, 5, X, nil)
	h.mgr.Acquire(2, 5, X, func() { order = append(order, 2) })
	h.mgr.Acquire(3, 5, X, func() { order = append(order, 3) })
	h.mgr.Release(1)
	h.mgr.Release(3)
	h.mgr.Release(2)
	if len(order) != 2 || order[0] != 3 || order[1] != 2 {
		t.Errorf("grant order = %v, want [3 2]", order)
	}
}

func TestPOWPreemption(t *testing.T) {
	// Low txn 1 holds A and is blocked on B (held by txn 2). High txn 3
	// requests A: POW preempts txn 1 because it is blocked elsewhere.
	h := newHarness(PriorityFIFO, true)
	h.mgr.Begin(1, Low)
	h.mgr.Begin(2, Low)
	h.mgr.Begin(3, High)
	granted3 := false
	h.mgr.Acquire(1, 1, X, nil)
	h.mgr.Acquire(2, 2, X, nil)
	h.mgr.Acquire(1, 2, X, func() {}) // 1 now blocked on B
	h.mgr.Acquire(3, 1, X, func() { granted3 = true })
	h.eng.RunAll()
	if r, ok := h.aborts[1]; !ok || r != Preempted {
		t.Fatalf("aborts = %v, want txn 1 Preempted", h.aborts)
	}
	if !granted3 {
		t.Error("high-priority txn should be granted after preemption")
	}
	if h.mgr.Stats().Preemptions != 1 {
		t.Errorf("preemptions = %d, want 1", h.mgr.Stats().Preemptions)
	}
}

func TestPOWDoesNotPreemptRunningHolder(t *testing.T) {
	// Low holder NOT blocked elsewhere: POW must not preempt it.
	h := newHarness(PriorityFIFO, true)
	h.mgr.Begin(1, Low)
	h.mgr.Begin(2, High)
	h.mgr.Acquire(1, 1, X, nil)
	h.mgr.Acquire(2, 1, X, func() {})
	h.eng.RunAll()
	if len(h.aborts) != 0 {
		t.Errorf("aborts = %v, want none (holder is runnable)", h.aborts)
	}
}

func TestPOWDoesNotPreemptHighHolder(t *testing.T) {
	h := newHarness(PriorityFIFO, true)
	h.mgr.Begin(1, High)
	h.mgr.Begin(2, Low)
	h.mgr.Begin(3, High)
	h.mgr.Acquire(1, 1, X, nil)
	h.mgr.Acquire(2, 2, X, nil)
	h.mgr.Acquire(1, 2, X, func() {}) // high blocked elsewhere
	h.mgr.Acquire(3, 1, X, func() {})
	h.eng.RunAll()
	if _, aborted := h.aborts[1]; aborted {
		t.Error("POW must never preempt a high-priority holder")
	}
}

func TestReleaseUnknownTxnNoop(t *testing.T) {
	h := newHarness(FIFO, false)
	h.mgr.Release(99) // must not panic
}

func TestReleaseCancelsPendingRequest(t *testing.T) {
	h := newHarness(FIFO, false)
	h.mgr.Begin(1, Low)
	h.mgr.Begin(2, Low)
	h.mgr.Begin(3, Low)
	h.mgr.Acquire(1, 5, X, nil)
	granted2, granted3 := false, false
	h.mgr.Acquire(2, 5, X, func() { granted2 = true })
	h.mgr.Acquire(3, 5, X, func() { granted3 = true })
	h.mgr.Release(2) // abort the queued txn
	h.mgr.Release(1)
	if granted2 {
		t.Error("released txn's request fired")
	}
	if !granted3 {
		t.Error("queue should advance past the canceled request")
	}
}

func TestNoTwoXHoldersInvariant(t *testing.T) {
	// Randomized stress: at no point may two txns hold X on one key,
	// or an X coexist with an S.
	h := newHarness(FIFO, false)
	g := sim.NewRNG(7, 0)
	const nTxns = 60
	const nKeys = 8
	live := map[TxnID]bool{}
	for i := TxnID(1); i <= nTxns; i++ {
		h.mgr.Begin(i, Low)
		live[i] = true
	}
	check := func() {
		for k := uint64(0); k < nKeys; k++ {
			l := h.mgr.locks[k]
			if l == nil {
				continue
			}
			xCount, sCount := 0, 0
			for _, h := range l.holders {
				if h.mode == X {
					xCount++
				} else {
					sCount++
				}
			}
			if xCount > 1 || (xCount == 1 && sCount > 0) {
				t.Fatalf("key %d: %d X holders, %d S holders", k, xCount, sCount)
			}
		}
	}
	for step := 0; step < 3000; step++ {
		id := TxnID(1 + g.IntN(nTxns))
		if _, aborted := h.aborts[id]; aborted {
			live[id] = false
		}
		if !live[id] {
			continue
		}
		if h.mgr.Waiting(id) {
			continue
		}
		switch g.IntN(4) {
		case 0, 1:
			mode := S
			if g.IntN(2) == 0 {
				mode = X
			}
			h.mgr.Acquire(id, uint64(g.IntN(nKeys)), mode, func() {})
		case 2:
			h.mgr.Release(id)
			live[id] = false
		case 3:
			h.eng.RunAll() // let deadlock aborts fire
		}
		check()
	}
	// Drain: release everything, queues must empty.
	for id := range live {
		h.mgr.Release(id)
	}
	h.eng.RunAll()
	check()
	if h.mgr.Live() != 0 {
		t.Errorf("live txns = %d after full release", h.mgr.Live())
	}
}

func TestStatsCounts(t *testing.T) {
	h := newHarness(FIFO, false)
	h.mgr.Begin(1, Low)
	h.mgr.Begin(2, Low)
	h.mgr.Acquire(1, 1, X, nil)       // grant
	h.mgr.Acquire(2, 1, X, func() {}) // wait
	st := h.mgr.Stats()
	if st.Grants != 1 || st.Waits != 1 {
		t.Errorf("stats = %+v, want 1 grant 1 wait", st)
	}
}

func TestDuplicateBeginPanics(t *testing.T) {
	h := newHarness(FIFO, false)
	h.mgr.Begin(1, Low)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Begin did not panic")
		}
	}()
	h.mgr.Begin(1, Low)
}

func TestMissingOnAbortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil OnAbort did not panic")
		}
	}()
	New(sim.NewEngine(), Config{})
}
