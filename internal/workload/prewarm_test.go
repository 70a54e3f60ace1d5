package workload

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"extsched/internal/dbms"
	"extsched/internal/sim"
)

// prewarmSetups are the Table 2 setups whose pools are fully cached
// (1), far smaller than the database (5), and partly cached (11).
var prewarmSetups = []int{1, 5, 11}

// freshDB builds an unwarmed DB for a Table 2 setup.
func freshDB(tb testing.TB, id int) (*dbms.DB, Setup) {
	tb.Helper()
	setup, err := SetupByID(id)
	if err != nil {
		tb.Fatal(err)
	}
	db, err := dbms.New(sim.NewEngine(), setup.BuildConfig(DBOptions{Seed: 1}))
	if err != nil {
		tb.Fatal(err)
	}
	return db, setup
}

// TestPrewarmAllocsBounded: warming a fresh pool makes a few dozen
// allocations at most (slot-index growth, the RNG), not one per access
// — setup 11 drives about 246k accesses. The GC is off while counting,
// so runtime work a GC cycle triggers is not counted.
func TestPrewarmAllocsBounded(t *testing.T) {
	const bound = 40
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, id := range prewarmSetups {
		db, setup := freshDB(t, id)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Prewarm(db, setup.Workload, 1)
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs
		t.Logf("setup %d: Prewarm made %d allocations (pool %d pages, %d resident)",
			id, allocs, db.Pool().Capacity(), db.Pool().Resident())
		if allocs > bound {
			t.Errorf("setup %d: Prewarm made %d allocations, want <= %d", id, allocs, bound)
		}
	}
}

// BenchmarkPrewarm measures warming a fresh pool, the buffer-pool part
// of building a simulated stack; the DB build itself is not timed.
func BenchmarkPrewarm(b *testing.B) {
	for _, id := range prewarmSetups {
		b.Run(fmt.Sprintf("setup%d", id), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, setup := freshDB(b, id)
				b.StartTimer()
				Prewarm(db, setup.Workload, 1)
			}
		})
	}
}
