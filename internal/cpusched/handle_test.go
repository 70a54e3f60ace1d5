package cpusched

import (
	"math"
	"testing"

	"extsched/internal/sim"
)

// TestStaleHandleIsHarmless: once a job completes or is canceled its
// record is reused by the next Submit. Every operation on the old
// handle must then be a no-op (or report zero) and leave the new job
// on the record untouched.
func TestStaleHandleIsHarmless(t *testing.T) {
	for _, retire := range []string{"completed", "canceled"} {
		t.Run(retire, func(t *testing.T) {
			eng := sim.NewEngine()
			cpu := New(eng, 1)
			old := cpu.Submit(1, 1, func() {})
			if retire == "completed" {
				eng.RunAll()
			} else {
				cpu.Cancel(old)
			}
			start := eng.Now()
			var doneA, doneB float64
			a := cpu.Submit(1, 1, func() { doneA = eng.Now() })
			cpu.Submit(1, 1, func() { doneB = eng.Now() })
			if a.j != old.j {
				t.Fatal("the new job did not reuse the retired record")
			}
			if r := old.Remaining(); r != 0 {
				t.Errorf("stale Remaining = %v, want 0", r)
			}
			if r := old.Rate(); r != 0 {
				t.Errorf("stale Rate = %v, want 0", r)
			}
			cpu.SetWeight(old, 10)
			cpu.Cancel(old)
			if cpu.Resident() != 2 {
				t.Fatalf("resident = %d after stale Cancel, want 2", cpu.Resident())
			}
			eng.RunAll()
			// Equal weights on one core: both finish together after 2s.
			// A stale SetWeight landing on a would finish it first; a
			// stale Cancel would never finish it.
			if math.Abs(doneA-start-2) > 1e-9 || math.Abs(doneB-start-2) > 1e-9 {
				t.Errorf("completions at +%v and +%v, want both at +2", doneA-start, doneB-start)
			}
		})
	}
}

// TestSubmitCompleteAllocationFree: with the free list and event pool
// warm, submitting a job and running it to completion allocates
// nothing.
func TestSubmitCompleteAllocationFree(t *testing.T) {
	eng := sim.NewEngine()
	cpu := New(eng, 2)
	done := 0
	onDone := func() { done++ }
	cycle := func() {
		cpu.Submit(0.5, 1, onDone)
		cpu.Submit(0.25, 2, onDone)
		cpu.Submit(0.75, 1, onDone)
		eng.RunAll()
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(1000, cycle); got != 0 {
		t.Errorf("Submit→complete: %v allocs/op, want 0", got)
	}
	if done != 3*1011 {
		t.Errorf("completed %d jobs, want %d", done, 3*1011)
	}
}
