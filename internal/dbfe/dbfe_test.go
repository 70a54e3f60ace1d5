package dbfe

import (
	"testing"

	"extsched/internal/dbms"
	"extsched/internal/dist"
	"extsched/internal/sim"
)

// newFrontend builds a frontend over a one-CPU, CPU-only DB whose
// commits cost no log I/O, so a txn's inside time is its CPU work.
func newFrontend(t *testing.T, mpl int) (*sim.Engine, *Frontend) {
	t.Helper()
	eng := sim.NewEngine()
	db, err := dbms.New(eng, dbms.Config{
		CPUs: 1, Disks: 1,
		BufferPoolPages: 16,
		LogService:      dist.NewDeterministic(0),
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, New(eng, db, mpl, nil)
}

// cpuTxn is a single-op transaction with its own lock key.
func cpuTxn(key uint64, work float64) dbms.TxnProfile {
	return dbms.TxnProfile{Ops: []dbms.Op{{Key: key, CPUWork: work}}}
}

// TestMPLCapFIFOAdmission: with MPL 3 and a burst of 20 submissions,
// at most 3 txns are inside at every event, the cap is reached, the
// admitted txns are always a prefix of the submission order (FIFO),
// and every txn completes exactly once.
func TestMPLCapFIFOAdmission(t *testing.T) {
	const mpl, n = 3, 20
	eng, fe := newFrontend(t, mpl)
	done := make([]int, n)
	txns := make([]*Txn, n)
	for i := range txns {
		txns[i] = fe.SubmitCB(cpuTxn(uint64(i+1), 0.01*float64(1+i%4)), func(*Txn) { done[i]++ })
	}
	maxInside := 0
	for {
		inside := fe.Inside()
		maxInside = max(maxInside, inside)
		if inside > mpl || fe.db.Inside() > mpl {
			t.Fatalf("t=%v: frontend inside %d, DBMS inside %d, want <= %d", eng.Now(), inside, fe.db.Inside(), mpl)
		}
		admitted := 0
		for admitted < n && txns[admitted].executing {
			admitted++
		}
		for _, tx := range txns[admitted:] {
			if tx.executing {
				t.Fatalf("t=%v: admission skipped ahead of FIFO order (prefix of %d admitted)", eng.Now(), admitted)
			}
		}
		if !eng.Step() {
			break
		}
	}
	if maxInside != mpl {
		t.Errorf("max inside = %d, want the cap %d to be reached", maxInside, mpl)
	}
	for i, c := range done {
		if c != 1 {
			t.Errorf("txn %d completed %d times, want 1", i, c)
		}
	}
	if m := fe.Metrics(); m.Completed != n {
		t.Errorf("completed = %d, want %d", m.Completed, n)
	}
}

// TestFailSettlesOutstandingAsFailed: Fail withdraws both the queued
// and the in-flight txns, returns them in submission order marked
// failed, frees every slot, and fires no per-txn callback.
func TestFailSettlesOutstandingAsFailed(t *testing.T) {
	const mpl, n = 2, 6
	eng, fe := newFrontend(t, mpl)
	calls := 0
	fe.OnComplete = func(*Txn) { calls++ }
	var txns []*Txn
	for i := 0; i < n; i++ {
		txns = append(txns, fe.SubmitCB(cpuTxn(uint64(i+1), 1), func(*Txn) { calls++ }))
	}
	eng.Run(0.5)
	if fe.Inside() != mpl || fe.QueueLen() != n-mpl {
		t.Fatalf("before Fail: inside %d queued %d, want %d and %d", fe.Inside(), fe.QueueLen(), mpl, n-mpl)
	}
	failed := fe.Fail()
	if len(failed) != n {
		t.Fatalf("Fail returned %d txns, want %d", len(failed), n)
	}
	for i, tx := range failed {
		if tx != txns[i] {
			t.Errorf("Fail()[%d] is not the %d-th submission", i, i)
		}
		if !tx.Failed() {
			t.Errorf("txn %d not marked failed", i)
		}
		if want := i < mpl; tx.doomed != want {
			t.Errorf("txn %d doomed = %v, want %v (only in-flight txns are doomed)", i, tx.doomed, want)
		}
	}
	if fe.Failed() != n || fe.Inside() != 0 || fe.QueueLen() != 0 {
		t.Errorf("after Fail: failed %d inside %d queued %d, want %d, 0, 0", fe.Failed(), fe.Inside(), fe.QueueLen(), n)
	}
	if calls != 0 {
		t.Errorf("Fail fired %d completion callbacks, want 0", calls)
	}
	if again := fe.Fail(); len(again) != 0 {
		t.Errorf("second Fail returned %d txns, want 0 (each loss counted once)", len(again))
	}
}

// TestDoomedLateCompletionIgnored: the DBMS still finishes a txn that
// was in flight when Fail doomed it; that completion must not reach the
// gate. Each arrival ends up counted exactly once — as failed, or as
// completed for the work submitted after the failure.
func TestDoomedLateCompletionIgnored(t *testing.T) {
	const mpl = 2
	eng, fe := newFrontend(t, mpl)
	completed := map[*Txn]int{}
	fe.OnComplete = func(tx *Txn) { completed[tx]++ }
	var before []*Txn
	for i := 0; i < 3; i++ {
		before = append(before, fe.Submit(cpuTxn(uint64(i+1), 1)))
	}
	eng.Run(0.5)
	fe.Fail()
	var after []*Txn
	for i := 0; i < 3; i++ {
		after = append(after, fe.Submit(cpuTxn(uint64(100+i), 0.1)))
	}
	eng.RunAll()
	if fe.db.Inside() != 0 {
		t.Fatalf("DBMS still has %d txns inside after RunAll", fe.db.Inside())
	}
	for i, tx := range before {
		if completed[tx] != 0 {
			t.Errorf("failed txn %d reached OnComplete %d times", i, completed[tx])
		}
		if tx.Result != (dbms.Result{}) {
			t.Errorf("failed txn %d got a DBMS result %+v", i, tx.Result)
		}
	}
	for i, tx := range after {
		if completed[tx] != 1 {
			t.Errorf("post-failure txn %d completed %d times, want 1", i, completed[tx])
		}
	}
	if m := fe.Metrics(); m.Completed != uint64(len(after)) || fe.Failed() != uint64(len(before)) {
		t.Errorf("completed %d failed %d, want %d and %d", m.Completed, fe.Failed(), len(after), len(before))
	}
	if fe.Inside() != 0 || fe.QueueLen() != 0 {
		t.Errorf("inside %d queued %d after drain, want 0 and 0", fe.Inside(), fe.QueueLen())
	}
}
