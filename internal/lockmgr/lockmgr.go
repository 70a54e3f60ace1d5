// Package lockmgr implements a strict two-phase-locking lock manager
// like the one in Shore: S/X item locks held to commit, FIFO or
// priority-ordered wait queues, waits-for-graph deadlock detection, and
// the Preempt-on-Wait (POW) policy of McWherter et al. that the paper
// uses for internal lock prioritization (Section 5.2).
//
// Isolation levels map to locking behaviour the way the paper's DB2
// experiments do: Repeatable Read (RR) takes S locks on reads and X
// locks on writes, all held to commit; Uncommitted Read (UR) skips read
// locks entirely, leaving only write-write conflicts.
//
// Every ordering the manager produces follows acquisition order, never
// Go map order: a lock's holders and a transaction's held locks are
// kept as slices in the order they were granted, so Release hands
// freed locks to their waiters in the order the releasing transaction
// acquired them, and POW preempts a lock's holders in the order they
// were granted it. Reruns of a seeded simulation are therefore
// bit-identical.
//
// Lock-table entries, transaction states and queued requests are
// recycled through free lists, so Begin, Acquire (granted or blocked)
// and Release allocate nothing in steady state.
package lockmgr

import (
	"cmp"
	"fmt"
	"slices"

	"extsched/internal/sim"
)

// Mode is a lock mode.
type Mode int

const (
	// S is a shared (read) lock.
	S Mode = iota
	// X is an exclusive (write) lock.
	X
)

func (m Mode) String() string {
	if m == S {
		return "S"
	}
	return "X"
}

// compatible reports whether a lock in mode a coexists with mode b.
func compatible(a, b Mode) bool { return a == S && b == S }

// Class is the external scheduling priority class of a transaction.
type Class int

const (
	// Low priority (the default 90% of transactions in the paper).
	Low Class = iota
	// High priority (the revenue-heavy 10%).
	High
)

// Policy orders lock wait queues.
type Policy int

const (
	// FIFO grants strictly in arrival order.
	FIFO Policy = iota
	// PriorityFIFO moves high-class waiters ahead of low-class ones,
	// FIFO within a class. With Preempt enabled this is POW.
	PriorityFIFO
)

// AbortReason explains why the manager asked for a transaction abort.
type AbortReason int

const (
	// Deadlock means the transaction was chosen as a deadlock victim.
	Deadlock AbortReason = iota
	// Preempted means a POW preemption by a high-priority waiter.
	Preempted
	// Timeout means the transaction waited longer than the configured
	// lock wait timeout (DB2's LOCKTIMEOUT-style safety net).
	Timeout
)

func (r AbortReason) String() string {
	switch r {
	case Deadlock:
		return "deadlock"
	case Preempted:
		return "preempted"
	default:
		return "timeout"
	}
}

// TxnID identifies a transaction attempt. Restarted transactions must
// use a fresh TxnID.
type TxnID uint64

// request is a queued lock request.
type request struct {
	txn     TxnID
	key     uint64
	mode    Mode
	class   Class
	seq     uint64 // arrival order for stable FIFO
	onGrant func()
	upgrade bool // S→X upgrade request
}

// holder is one granted lock, as seen from the lock.
type holder struct {
	txn  TxnID
	mode Mode
}

// heldLock is one granted lock, as seen from the transaction.
type heldLock struct {
	key  uint64
	mode Mode
}

// lock is one lock-table entry. holders is in grant order.
type lock struct {
	holders []holder
	queue   []*request
}

// holderIdx returns the index of txn in l.holders, or -1.
func (l *lock) holderIdx(txn TxnID) int {
	for i := range l.holders {
		if l.holders[i].txn == txn {
			return i
		}
	}
	return -1
}

// txnState tracks a live transaction. held is in acquisition order; a
// linear search is cheap because a transaction holds few locks (at
// most 12 in the Table 1 mixes).
type txnState struct {
	id      TxnID
	class   Class
	held    []heldLock
	waiting *request // non-nil while blocked
	// mark is the deadlock search that last visited this transaction.
	mark uint64
}

// heldIdx returns the index of key in st.held, or -1.
func (st *txnState) heldIdx(key uint64) int {
	for i := range st.held {
		if st.held[i].key == key {
			return i
		}
	}
	return -1
}

// Stats aggregates lock-manager activity.
type Stats struct {
	Grants      uint64
	Waits       uint64 // requests that had to block
	Deadlocks   uint64 // victims chosen
	Preemptions uint64 // POW preemptions issued
	Timeouts    uint64 // waits aborted by the wait timeout
	Upgrades    uint64
}

// Manager is the lock manager.
type Manager struct {
	eng         *sim.Engine
	policy      Policy
	preempt     bool // POW preemption of blocked low-priority holders
	waitTimeout float64
	locks       map[uint64]*lock
	txns        map[TxnID]*txnState
	seq         uint64
	stats       Stats
	// Free lists of emptied lock-table entries, released transaction
	// states and retired requests.
	freeLocks []*lock
	freeTxns  []*txnState
	freeReqs  []*request
	// syncGranted is set by syncGrantFn, the onGrant an Acquire installs
	// on its own request while it tries a head grant, so the caller can
	// tell an immediate grant from a block.
	syncGranted bool
	syncGrantFn func()
	// dfsMark numbers deadlock searches; dfsEdges is their shared
	// waits-for edge stack.
	dfsMark  uint64
	dfsEdges []TxnID
	// onAbort is invoked (asynchronously, via a zero-delay event) when
	// the manager needs a transaction aborted: deadlock victim or POW
	// preemption. The owner must eventually call Release for the txn.
	onAbort func(TxnID, AbortReason)
}

// Config configures a Manager.
type Config struct {
	Policy  Policy
	Preempt bool // enable POW (requires PriorityFIFO to be useful)
	// WaitTimeout, when > 0, aborts any request that has waited this
	// many seconds — the LOCKTIMEOUT safety net real engines run in
	// addition to deadlock detection. Zero disables it.
	WaitTimeout float64
	// OnAbort receives deadlock-victim, preemption and timeout
	// notifications. Required: strict 2PL with blocking always risks
	// deadlock.
	OnAbort func(TxnID, AbortReason)
}

// New returns a Manager.
func New(eng *sim.Engine, cfg Config) *Manager {
	if cfg.OnAbort == nil {
		panic("lockmgr: Config.OnAbort is required")
	}
	m := &Manager{
		eng:         eng,
		policy:      cfg.Policy,
		preempt:     cfg.Preempt,
		waitTimeout: cfg.WaitTimeout,
		locks:       make(map[uint64]*lock),
		txns:        make(map[TxnID]*txnState),
		onAbort:     cfg.OnAbort,
	}
	m.syncGrantFn = func() { m.syncGranted = true }
	return m
}

// Stats returns a snapshot of activity counters.
func (m *Manager) Stats() Stats { return m.stats }

// Begin registers a transaction attempt with its priority class.
func (m *Manager) Begin(txn TxnID, class Class) {
	if _, ok := m.txns[txn]; ok {
		panic(fmt.Sprintf("lockmgr: duplicate Begin for txn %d", txn))
	}
	st := take(&m.freeTxns)
	st.id, st.class = txn, class
	m.txns[txn] = st
}

// newRequest returns a recycled (or fresh) queued request.
func (m *Manager) newRequest(txn TxnID, key uint64, mode Mode, class Class, onGrant func(), upgrade bool) *request {
	req := take(&m.freeReqs)
	*req = request{txn: txn, key: key, mode: mode, class: class, seq: m.seq, onGrant: onGrant, upgrade: upgrade}
	m.seq++
	return req
}

// take pops a recycled record off a free list, or returns a new one.
func take[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	x := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return x
}

// freeRequest retires a request that left its queue.
func (m *Manager) freeRequest(req *request) {
	req.onGrant = nil
	m.freeReqs = append(m.freeReqs, req)
}

// Holding returns the number of locks held by txn.
func (m *Manager) Holding(txn TxnID) int {
	st, ok := m.txns[txn]
	if !ok {
		return 0
	}
	return len(st.held)
}

// Waiting reports whether txn is blocked on a lock queue.
func (m *Manager) Waiting(txn TxnID) bool {
	st, ok := m.txns[txn]
	return ok && st.waiting != nil
}

// Acquire requests key in the given mode. If the lock is granted
// immediately it returns true and onGrant is NOT called (the caller
// just continues). Otherwise it returns false and onGrant fires when
// the lock is eventually granted. A transaction may hold at most one
// pending request (strict 2PL executors are sequential).
//
// Deadlocks created by this wait are detected immediately on the
// waits-for graph; the victim is aborted via the OnAbort callback.
func (m *Manager) Acquire(txn TxnID, key uint64, mode Mode, onGrant func()) bool {
	st, ok := m.txns[txn]
	if !ok {
		panic(fmt.Sprintf("lockmgr: Acquire by unknown txn %d", txn))
	}
	if st.waiting != nil {
		panic(fmt.Sprintf("lockmgr: txn %d already has a pending request", txn))
	}
	l := m.locks[key]
	if l == nil {
		l = take(&m.freeLocks)
		m.locks[key] = l
	}
	if hi := st.heldIdx(key); hi >= 0 {
		if held := st.held[hi].mode; held == X || held == mode {
			// Already covered (lock strengthening is a no-op).
			m.stats.Grants++
			return true
		}
		// S→X upgrade.
		m.stats.Upgrades++
		if len(l.holders) == 1 {
			l.holders[0].mode = X
			st.held[hi].mode = X
			m.stats.Grants++
			return true
		}
		req := m.newRequest(txn, key, X, st.class, onGrant, true)
		// Upgraders wait at the head: they already hold S and must not
		// queue behind new S requests (which would deadlock trivially).
		l.queue = slices.Insert(l.queue, 0, req)
		st.waiting = req
		m.stats.Waits++
		m.afterBlock(st, l)
		return false
	}
	if len(l.queue) == 0 && m.grantable(l, mode) {
		l.holders = append(l.holders, holder{txn, mode})
		st.held = append(st.held, heldLock{key, mode})
		m.stats.Grants++
		return true
	}
	// A non-empty queue must not be bypassed even by a compatible
	// request: jumping over queued waiters both starves writers and
	// creates waits-for edges invisible to at-block-time deadlock
	// detection. Enqueue, apply the policy ordering, then try a head
	// grant (under PriorityFIFO a high-class request may legitimately
	// reach the head and be granted immediately). A grant callback may
	// re-enter Acquire, so the flag of an outer call is saved.
	req := m.newRequest(txn, key, mode, st.class, m.syncGrantFn, false)
	l.queue = append(l.queue, req)
	m.orderQueue(l)
	st.waiting = req
	outer := m.syncGranted
	m.syncGranted = false
	m.grantWaiters(key, l)
	granted := m.syncGranted
	m.syncGranted = outer
	if granted {
		return true
	}
	req.onGrant = onGrant
	m.stats.Waits++
	m.afterBlock(st, l)
	return false
}

// grantable reports whether a new request in mode can be granted given
// the current holders (queue considered separately by callers).
func (m *Manager) grantable(l *lock, mode Mode) bool {
	for _, h := range l.holders {
		if !compatible(h.mode, mode) {
			return false
		}
	}
	return true
}

// orderQueue applies the policy: PriorityFIFO sorts high class first,
// stable by arrival; upgrade requests always stay ahead.
func (m *Manager) orderQueue(l *lock) {
	if m.policy != PriorityFIFO {
		return
	}
	slices.SortStableFunc(l.queue, func(a, b *request) int {
		if a.upgrade != b.upgrade {
			if a.upgrade {
				return -1
			}
			return 1
		}
		if a.class != b.class {
			return cmp.Compare(b.class, a.class) // High (1) before Low (0)
		}
		return cmp.Compare(a.seq, b.seq)
	})
}

// afterBlock runs deadlock detection, POW preemption, and the wait
// timeout after st blocked on lock l.
func (m *Manager) afterBlock(st *txnState, l *lock) {
	if m.waitTimeout > 0 {
		// Requests are recycled, so the wait is identified by its
		// arrival sequence number rather than by pointer.
		seq := st.waiting.seq
		id := st.id
		m.eng.After(m.waitTimeout, func() {
			cur, ok := m.txns[id]
			if !ok || cur.waiting == nil || cur.waiting.seq != seq {
				return // granted, released or restarted meanwhile
			}
			m.stats.Timeouts++
			m.onAbort(id, Timeout)
		})
	}
	if victim, found := m.findDeadlockVictim(st); found {
		m.stats.Deadlocks++
		v := victim
		m.eng.After(0, func() { m.onAbort(v, Deadlock) })
		return
	}
	if m.preempt && st.class == High {
		// POW: preempt any low-priority holder of this lock that is
		// itself blocked at another lock queue (it cannot make
		// progress anyway, and it stands in the way of a high).
		// Holders are visited in grant order.
		for _, h := range l.holders {
			hs, ok := m.txns[h.txn]
			if !ok || hs.class == High || hs.waiting == nil {
				continue
			}
			m.stats.Preemptions++
			victim := h.txn
			m.eng.After(0, func() { m.onAbort(victim, Preempted) })
		}
	}
}

// waitsFor appends to m.dfsEdges the transactions t is directly
// waiting on: incompatible current holders of the requested lock,
// plus every request queued ahead of t's request. The queue-
// predecessor edges are real waits under the no-bypass discipline — a
// request is never granted before those ahead of it, even if it is
// compatible with the current holders.
func (m *Manager) waitsFor(t *txnState) {
	if t.waiting == nil {
		return
	}
	l := m.locks[t.waiting.key]
	if l == nil {
		return
	}
	for _, h := range l.holders {
		if h.txn == t.id {
			continue // upgrade: own S lock doesn't block itself
		}
		if !compatible(h.mode, t.waiting.mode) {
			m.dfsEdges = append(m.dfsEdges, h.txn)
		}
	}
	for _, r := range l.queue {
		if r == t.waiting {
			break
		}
		if r.txn != t.id {
			m.dfsEdges = append(m.dfsEdges, r.txn)
		}
	}
}

// findDeadlockVictim searches for a waits-for cycle through the newly
// blocked transaction and returns it as the victim (abort-requester
// policy: deterministic, and any new cycle necessarily runs through
// the transaction whose block created it). Visited transactions carry
// the search's number in their mark, and each level's edges live on
// the shared m.dfsEdges stack above its parent's.
func (m *Manager) findDeadlockVictim(start *txnState) (TxnID, bool) {
	m.dfsMark++
	if m.dfs(start, start.id) {
		m.dfsEdges = m.dfsEdges[:0]
		return start.id, true
	}
	return 0, false
}

func (m *Manager) dfs(t *txnState, target TxnID) bool {
	if t.mark == m.dfsMark {
		return false
	}
	t.mark = m.dfsMark
	base := len(m.dfsEdges)
	m.waitsFor(t)
	end := len(m.dfsEdges)
	for i := base; i < end; i++ {
		next := m.dfsEdges[i]
		if next == target {
			return true
		}
		ns, ok := m.txns[next]
		if !ok {
			continue
		}
		if m.dfs(ns, target) {
			return true
		}
	}
	m.dfsEdges = m.dfsEdges[:base]
	return false
}

// Release drops every lock held by txn (commit or abort under strict
// 2PL), cancels any pending request, and grants newly compatible
// waiters. Unknown transactions are a no-op so that abort paths can
// release defensively.
func (m *Manager) Release(txn TxnID) {
	st, ok := m.txns[txn]
	if !ok {
		return
	}
	delete(m.txns, txn)
	// Cancel a pending request.
	if st.waiting != nil {
		if l := m.locks[st.waiting.key]; l != nil {
			if i := slices.Index(l.queue, st.waiting); i >= 0 {
				l.queue = slices.Delete(l.queue, i, i+1)
				m.freeRequest(st.waiting)
			}
		}
		st.waiting = nil
	}
	for _, h := range st.held {
		l := m.locks[h.key]
		if l == nil {
			continue
		}
		if i := l.holderIdx(txn); i >= 0 {
			l.holders = slices.Delete(l.holders, i, i+1)
		}
		m.grantWaiters(h.key, l)
		if len(l.holders) == 0 && len(l.queue) == 0 {
			delete(m.locks, h.key)
			m.freeLocks = append(m.freeLocks, l)
		}
	}
	st.held = st.held[:0]
	m.freeTxns = append(m.freeTxns, st)
}

// grantWaiters grants from the queue head while compatible.
func (m *Manager) grantWaiters(key uint64, l *lock) {
	for len(l.queue) > 0 {
		head := l.queue[0]
		hs, ok := m.txns[head.txn]
		if !ok {
			// Stale request from a released txn.
			m.popHead(l)
			continue
		}
		if head.upgrade {
			// Grantable only when head.txn is the sole remaining holder.
			if len(l.holders) == 1 && l.holders[0].txn == head.txn {
				l.holders[0].mode = X
				if hi := hs.heldIdx(key); hi >= 0 {
					hs.held[hi].mode = X
				}
				hs.waiting = nil
				m.stats.Grants++
				onGrant := head.onGrant
				m.popHead(l)
				onGrant()
				continue
			}
			return
		}
		if !m.grantable(l, head.mode) {
			return
		}
		l.holders = append(l.holders, holder{head.txn, head.mode})
		hs.held = append(hs.held, heldLock{key, head.mode})
		hs.waiting = nil
		m.stats.Grants++
		onGrant := head.onGrant
		m.popHead(l)
		onGrant()
	}
}

// popHead removes l's head request and retires it; callers read what
// they need from the record first.
func (m *Manager) popHead(l *lock) {
	head := l.queue[0]
	l.queue = slices.Delete(l.queue, 0, 1)
	m.freeRequest(head)
}

// QueueLength returns the wait-queue length at key (0 if unknown).
func (m *Manager) QueueLength(key uint64) int {
	if l := m.locks[key]; l != nil {
		return len(l.queue)
	}
	return 0
}

// Holders returns the number of holders at key.
func (m *Manager) Holders(key uint64) int {
	if l := m.locks[key]; l != nil {
		return len(l.holders)
	}
	return 0
}

// Live returns the number of registered transactions.
func (m *Manager) Live() int { return len(m.txns) }
