package disk

import (
	"testing"

	"extsched/internal/sim"
)

// TestStaleHandleIsHarmless: once a request completes or is canceled
// its record is reused by the next Submit. Cancel on the old handle
// must then be a no-op that leaves the new request's completion
// intact, whether the new request is in service or still queued.
func TestStaleHandleIsHarmless(t *testing.T) {
	t.Run("completed/in-service", func(t *testing.T) {
		eng := sim.NewEngine()
		d := NewDisk(eng, "d0")
		old := d.Submit(1, func() {})
		eng.RunAll()
		fired := false
		r := d.Submit(1, func() { fired = true })
		if r.r != old.r {
			t.Fatal("the new request did not reuse the retired record")
		}
		d.Cancel(old)
		eng.RunAll()
		if !fired {
			t.Error("stale Cancel suppressed the new request's completion")
		}
	})
	t.Run("canceled/queued", func(t *testing.T) {
		eng := sim.NewEngine()
		d := NewDisk(eng, "d0")
		d.Submit(1, func() {})
		old := d.Submit(1, func() {})
		d.Cancel(old)
		fired := false
		r := d.Submit(1, func() { fired = true })
		if r.r != old.r {
			t.Fatal("the new request did not reuse the retired record")
		}
		d.Cancel(old)
		if d.QueueLen() != 1 {
			t.Fatalf("queue length %d after stale Cancel, want 1", d.QueueLen())
		}
		eng.RunAll()
		if !fired {
			t.Error("stale Cancel dropped the new queued request")
		}
		if d.Served() != 2 {
			t.Errorf("served = %d, want 2", d.Served())
		}
	})
}

// TestSubmitFinishAllocationFree: with the free list, queue and event
// pool warm, queueing requests and serving them allocates nothing.
func TestSubmitFinishAllocationFree(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng, "d0")
	done := 0
	onDone := func() { done++ }
	cycle := func() {
		for i := 0; i < 4; i++ {
			d.Submit(0.01, onDone)
		}
		eng.RunAll()
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(1000, cycle); got != 0 {
		t.Errorf("Submit→finish: %v allocs/op, want 0", got)
	}
	if done != 4*1011 {
		t.Errorf("served %d requests, want %d", done, 4*1011)
	}
}
