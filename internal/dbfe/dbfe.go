// Package dbfe binds the backend-agnostic external scheduler
// (internal/core) to the simulated DBMS (internal/dbms): the MPL gate
// and queue policies come from core, transaction execution comes from
// dbms, and the glue here adapts between the two — a dbms.TxnProfile
// goes in, a generic core.Item flows through the gate, and the DBMS
// executes the profile when the gate admits it.
//
// This is the simulator-side twin of the top-level gate package (the
// live-traffic binding): both are thin Backends over the same core
// frontend, which is what makes sim-vs-live parity claims meaningful.
//
// The binding adds no allocations on the per-transaction fast path
// beyond the seed implementation: one Txn per submission (the
// core.Item is embedded in it) and one completion closure per
// dispatch, exactly as before the core refactor.
package dbfe

import (
	"extsched/internal/core"
	"extsched/internal/dbms"
	"extsched/internal/lockmgr"
	"extsched/internal/sim"
)

// Txn is one transaction flowing through the frontend.
type Txn struct {
	// Item is the generic gate record (timestamps, class, size hint).
	Item core.Item
	// Profile is the workload-generated transaction.
	Profile dbms.TxnProfile
	// Result is the DBMS's commit report (set at completion).
	Result dbms.Result
	// Attempts counts the recovery attempts consumed for this logical
	// transaction (0 on first submission). The cluster dispatcher's
	// resubmit path carries it across resubmissions and enforces the
	// retry budget against it; dbfe itself never touches it.
	Attempts int
	// UserCB is the submitter's own completion callback, kept reachable
	// on the txn so the cluster dispatcher can resubmit a failed txn
	// with it (the per-txn done callback is the dispatcher's accounting
	// wrapper, not the submitter's). dbfe itself never calls it.
	UserCB func(*Txn)
	done   func(*Txn)
	// executing is set when the gate admits the txn into the DBMS;
	// settled when it leaves the frontend for good (commit, shed, or
	// fault). doomed suppresses the late DBMS completion of a txn that
	// was in flight when its shard died (the simulated DBMS has no
	// cancel API, so the execution events still fire — the completion
	// callback just ignores them).
	executing, settled, doomed bool
}

// Failed reports whether the transaction was lost to a shard failure
// (see Frontend.Fail). Valid once the txn is terminal.
func (t *Txn) Failed() bool { return t.Item.WasFailed() }

// Class returns the transaction's priority class.
func (t *Txn) Class() lockmgr.Class { return t.Profile.Class }

// ResponseTime is Complete − Arrival (external wait + inside time).
func (t *Txn) ResponseTime() float64 { return t.Item.ResponseTime() }

// ExternalWait is Dispatch − Arrival.
func (t *Txn) ExternalWait() float64 { return t.Item.ExternalWait() }

// Frontend is the external scheduler over a simulated DBMS. It embeds
// the generic core.Frontend, so all gate controls (SetMPL, QueueLen,
// Metrics, SetQueueLimit, EnablePercentiles, …) are available directly.
type Frontend struct {
	*core.Frontend
	db *dbms.DB
	// live is the insertion-ordered registry of outstanding (queued or
	// executing) transactions — what Fail walks to withdraw every piece
	// of work a dying shard holds. Settled entries are removed lazily.
	// Maintained only on the simulation goroutine (like the hooks).
	live      []*Txn
	deadLive  int
	failedNow []*Txn // scratch for Fail
	// OnComplete, if set, observes every committed transaction (used by
	// drivers for closed-loop clients and by controller wiring).
	OnComplete func(*Txn)
	// OnDrop, if set, observes admission-control rejections.
	OnDrop func(*Txn)
	// OnShed, if set, observes deadline sheds (transactions rejected
	// because they could not start by their admission deadline). The
	// per-transaction SubmitCB callback fires for sheds too — check
	// Item.WasShed to tell a shed from a commit.
	OnShed func(*Txn)
}

// backend executes admitted items on the simulated DBMS.
type backend struct {
	db *dbms.DB
	fe *core.Frontend
}

func (b *backend) Exec(it *core.Item) {
	t := it.Payload.(*Txn)
	t.executing = true
	b.db.Exec(t.Profile, func(r dbms.Result) {
		if t.doomed {
			// The shard died while this txn was in flight; the loss was
			// already accounted by FailDispatched, so the simulated
			// DBMS's late completion must not reach the gate.
			return
		}
		t.Result = r
		b.fe.Complete(it, core.Outcome{InsideTime: r.InsideTime, Restarts: r.Restarts})
	})
}

// New builds a frontend over db with the given MPL (0 = unlimited) and
// policy (nil = FIFO), on the engine's virtual clock.
func New(eng *sim.Engine, db *dbms.DB, mpl int, policy core.Policy) *Frontend {
	f := &Frontend{db: db}
	be := &backend{db: db}
	f.Frontend = core.New(eng.Clock(), be, mpl, policy)
	be.fe = f.Frontend
	f.Frontend.OnComplete = func(it *core.Item) {
		t := it.Payload.(*Txn)
		f.settle(t)
		if f.OnComplete != nil {
			f.OnComplete(t)
		}
	}
	f.Frontend.OnDrop = func(it *core.Item) {
		if f.OnDrop != nil {
			f.OnDrop(it.Payload.(*Txn))
		}
	}
	f.Frontend.OnShed = func(it *core.Item) {
		t := it.Payload.(*Txn)
		f.settle(t)
		if f.OnShed != nil {
			f.OnShed(t)
		}
	}
	return f
}

// settle marks t as gone from the outstanding registry; entries are
// purged lazily once enough accumulate.
func (f *Frontend) settle(t *Txn) {
	if t.settled {
		return
	}
	t.settled = true
	f.deadLive++
	if f.deadLive >= 64 && f.deadLive*2 >= len(f.live) {
		kept := 0
		for _, lt := range f.live {
			if !lt.settled {
				f.live[kept] = lt
				kept++
			}
		}
		for i := kept; i < len(f.live); i++ {
			f.live[i] = nil
		}
		f.live = f.live[:kept]
		f.deadLive = 0
	}
}

// Fail simulates the shard behind this frontend crashing: every
// outstanding transaction — still queued or already executing inside
// the DBMS — is withdrawn and counted in the gate's Failed counter, and
// the withdrawn txns are returned in submission order so the caller
// (the cluster dispatcher's recovery policy) can resubmit or shed them.
// No per-txn callbacks fire here. In-flight txns are doomed: the
// simulated DBMS has no cancel API, so their execution events still
// fire, but the completion is suppressed. The frontend itself stays
// usable (Recover on the dispatcher side routes work back to it).
func (f *Frontend) Fail() []*Txn {
	// Withdraw queued work first: failing an in-flight txn frees a slot
	// and refills from the queue, which must find nothing live to admit
	// into the dead DBMS.
	for _, t := range f.live {
		if t.settled {
			continue
		}
		f.Frontend.FailQueued(&t.Item)
	}
	for _, t := range f.live {
		if t.settled || !t.executing || t.Item.WasFailed() {
			continue
		}
		t.doomed = true
		f.Frontend.FailDispatched(&t.Item)
	}
	f.failedNow = f.failedNow[:0]
	for _, t := range f.live {
		if !t.settled && t.Item.WasFailed() {
			f.failedNow = append(f.failedNow, t)
		}
	}
	out := make([]*Txn, len(f.failedNow))
	copy(out, f.failedNow)
	// Settle after collecting: settle may compact f.live in place.
	for _, t := range out {
		f.settle(t)
	}
	return out
}

// txnDone adapts the per-item completion callback to the Txn-level one.
// A package-level func value, so passing it allocates nothing.
func txnDone(it *core.Item) {
	t := it.Payload.(*Txn)
	t.done(t)
}

// Submit delivers a new transaction to the external scheduler.
func (f *Frontend) Submit(profile dbms.TxnProfile) *Txn {
	return f.SubmitCB(profile, nil)
}

// SubmitCB is Submit with a per-transaction completion callback (used
// by closed-loop drivers to cycle their client). cb runs before the
// frontend-wide OnComplete hook. Under a queue limit (admission-
// control mode) the transaction may be rejected: it is returned with
// no callbacks scheduled and counted in Dropped.
func (f *Frontend) SubmitCB(profile dbms.TxnProfile, cb func(*Txn)) *Txn {
	t := &Txn{Profile: profile, done: cb}
	it := &t.Item
	it.Class = core.Class(profile.Class)
	it.SizeHint = profile.EstimatedDemand
	it.Payload = t
	var done func(*core.Item)
	if cb != nil {
		done = txnDone
	}
	if f.Frontend.Submit(it, done) {
		f.live = append(f.live, t)
	}
	return t
}
