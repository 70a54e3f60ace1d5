package dbms_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"extsched/internal/dbms"
	"extsched/internal/sim"
	"extsched/internal/workload"
)

// closedLoop keeps a fixed number of transactions inside a DB, cycling
// through profiles generated up front so the workload generator is
// not part of what is measured.
type closedLoop struct {
	eng      *sim.Engine
	db       *dbms.DB
	profiles []dbms.TxnProfile
	next     int
	clients  int
	left     int // transactions still to dispatch
	onDone   func(dbms.Result)
}

// newClosedLoop builds a prewarmed DB for a Table 2 setup with clients
// transactions in flight.
func newClosedLoop(tb testing.TB, setupID, clients int) *closedLoop {
	tb.Helper()
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		tb.Fatal(err)
	}
	eng := sim.NewEngine()
	db, err := dbms.New(eng, setup.BuildConfig(workload.DBOptions{Seed: 1}))
	if err != nil {
		tb.Fatal(err)
	}
	workload.Prewarm(db, setup.Workload, 1)
	gen, err := workload.NewGenerator(setup.Workload, 1)
	if err != nil {
		tb.Fatal(err)
	}
	c := &closedLoop{eng: eng, db: db, clients: clients}
	for i := 0; i < 1024; i++ {
		c.profiles = append(c.profiles, gen.Next())
	}
	c.onDone = func(dbms.Result) { c.dispatch() }
	return c
}

func (c *closedLoop) dispatch() {
	if c.left == 0 {
		return
	}
	c.left--
	p := c.profiles[c.next]
	c.next = (c.next + 1) % len(c.profiles)
	c.db.Exec(p, c.onDone)
}

// run commits n more transactions and drains the engine.
func (c *closedLoop) run(n int) {
	c.left = n
	for i := 0; i < c.clients; i++ {
		c.dispatch()
	}
	c.eng.RunAll()
}

// TestTxnPathAllocsBounded: once warm, a committed transaction costs
// at most a few amortized allocations (map and heap growth, the rare
// abort path) — not one record and closure per lock, CPU burst and
// I/O. The GC is off while counting, so runtime work a GC cycle
// triggers is not counted.
func TestTxnPathAllocsBounded(t *testing.T) {
	const bound = 0.5
	c := newClosedLoop(t, 11, 10)
	c.run(2000)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 5000
	committed := c.db.Stats().Committed
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.run(n)
	runtime.ReadMemStats(&after)
	if got := c.db.Stats().Committed - committed; got != n {
		t.Fatalf("committed %d transactions, want %d", got, n)
	}
	perTxn := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("setup 11, 10 in flight: %.3f allocs per committed transaction (%d aborts so far)",
		perTxn, c.db.Stats().Aborted)
	if perTxn > bound {
		t.Errorf("%.3f allocs per committed transaction, want <= %v", perTxn, bound)
	}
}

// BenchmarkDBMSTxn measures one committed transaction through the DBMS
// model — lock manager, CPU scheduler, buffer pool, data and log disks
// — in a closed loop of 10 over Table 2 setup 11 (partly cached, so
// transactions do data I/O). Profiles are pre-generated.
func BenchmarkDBMSTxn(b *testing.B) {
	c := newClosedLoop(b, 11, 10)
	c.run(2000)
	b.ReportAllocs()
	b.ResetTimer()
	c.run(b.N)
}
