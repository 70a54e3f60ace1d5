package disk

import (
	"math"
	"testing"

	"extsched/internal/dist"
	"extsched/internal/sim"
)

func TestFCFSOrdering(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng, "d0")
	var order []int
	d.Submit(1.0, func() { order = append(order, 1) })
	d.Submit(1.0, func() { order = append(order, 2) })
	d.Submit(1.0, func() { order = append(order, 3) })
	eng.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("completion order %v, want [1 2 3]", order)
	}
	if eng.Now() != 3.0 {
		t.Errorf("drained at %v, want 3.0 (serial service)", eng.Now())
	}
}

func TestDiskSerialService(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng, "d0")
	var t1, t2 float64
	d.Submit(0.5, func() { t1 = eng.Now() })
	d.Submit(0.25, func() { t2 = eng.Now() })
	eng.RunAll()
	if math.Abs(t1-0.5) > 1e-12 || math.Abs(t2-0.75) > 1e-12 {
		t.Errorf("completions at (%v, %v), want (0.5, 0.75)", t1, t2)
	}
	if d.Served() != 2 {
		t.Errorf("served = %d, want 2", d.Served())
	}
	if math.Abs(d.BusySeconds()-0.75) > 1e-12 {
		t.Errorf("busy = %v, want 0.75", d.BusySeconds())
	}
}

func TestCancelQueuedRequest(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng, "d0")
	fired := false
	var t2 float64
	d.Submit(1.0, func() {})
	r := d.Submit(1.0, func() { fired = true })
	d.Submit(1.0, func() { t2 = eng.Now() })
	d.Cancel(r)
	eng.RunAll()
	if fired {
		t.Error("canceled queued request fired")
	}
	if math.Abs(t2-2.0) > 1e-12 {
		t.Errorf("third request done at %v, want 2.0 (skipped canceled)", t2)
	}
}

func TestCancelInServiceSuppressesCallback(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng, "d0")
	fired := false
	r := d.Submit(1.0, func() { fired = true })
	eng.After(0.5, func() { d.Cancel(r) })
	eng.RunAll()
	if fired {
		t.Error("callback of canceled in-service request fired")
	}
	// Device still accounts the service time (the head can't be recalled).
	if math.Abs(d.BusySeconds()-1.0) > 1e-12 {
		t.Errorf("busy = %v, want 1.0", d.BusySeconds())
	}
}

func TestCancelNilNoop(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng, "d0")
	d.Cancel(Request{})
	_ = eng
}

func TestBusySecondsMidService(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng, "d0")
	d.Submit(2.0, func() {})
	var mid float64
	eng.After(1.0, func() { mid = d.BusySeconds() })
	eng.RunAll()
	if math.Abs(mid-1.0) > 1e-12 {
		t.Errorf("busy at t=1 = %v, want 1.0", mid)
	}
}

func TestArrayStriping(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1, 0)
	a := NewArray(eng, 4, dist.NewDeterministic(0.01), rng)
	if a.Size() != 4 {
		t.Fatalf("size = %d", a.Size())
	}
	done := 0
	const n = 4000
	for i := 0; i < n; i++ {
		a.SubmitIO(func() { done++ })
	}
	eng.RunAll()
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	// Striping should be roughly uniform.
	for _, d := range a.Disks() {
		frac := float64(d.Served()) / n
		if math.Abs(frac-0.25) > 0.03 {
			t.Errorf("disk %s served fraction %v, want ~0.25", d.Name(), frac)
		}
	}
}

func TestArrayParallelism(t *testing.T) {
	// n simultaneous IOs on n disks should finish in ~1 service time,
	// not serially — this is exactly why the paper's min MPL grows with
	// the disk count.
	eng := sim.NewEngine()
	rng := sim.NewRNG(2, 0)
	a := NewArray(eng, 4, dist.NewDeterministic(1.0), rng)
	done := 0
	for i := 0; i < 16; i++ {
		a.SubmitIO(func() { done++ })
	}
	eng.RunAll()
	if done != 16 {
		t.Fatalf("done = %d", done)
	}
	// 16 IOs over 4 disks, deterministic 1s: worst disk gets ≈4.
	// The drain time must be far below the serial 16s.
	if eng.Now() > 9 {
		t.Errorf("drained at %v, want well below serial 16", eng.Now())
	}
}

func TestLogAppend(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(3, 0)
	l := NewLog(eng, dist.NewDeterministic(0.005), rng)
	var doneAt float64
	l.Append(func() { doneAt = eng.Now() })
	eng.RunAll()
	if math.Abs(doneAt-0.005) > 1e-12 {
		t.Errorf("log append done at %v, want 0.005", doneAt)
	}
	if l.Disk().Served() != 1 {
		t.Errorf("served = %d, want 1", l.Disk().Served())
	}
}

func TestInvalidServicePanics(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng, "d0")
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("service %v did not panic", bad)
				}
			}()
			d.Submit(bad, func() {})
		}()
	}
}

func TestArrayValidation(t *testing.T) {
	eng := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("zero-disk array did not panic")
		}
	}()
	NewArray(eng, 0, dist.NewDeterministic(1), sim.NewRNG(1, 0))
}

func TestDiskUtilizationUnderLoad(t *testing.T) {
	// Poisson-ish arrivals at rho=0.5 on a single disk: utilization
	// should approach 0.5.
	eng := sim.NewEngine()
	rng := sim.NewRNG(5, 0)
	d := NewDisk(eng, "d0")
	svc := dist.NewExponential(0.01)
	var arrive func()
	count := 0
	arrive = func() {
		count++
		if count > 50000 {
			return
		}
		d.Submit(svc.Sample(rng), func() {})
		eng.After(rng.ExpFloat64()*0.02, arrive)
	}
	eng.After(0, arrive)
	eng.RunAll()
	util := d.BusySeconds() / eng.Now()
	if math.Abs(util-0.5) > 0.05 {
		t.Errorf("utilization = %v, want ~0.5", util)
	}
}

func TestResubmitFromCallbackStaysSerial(t *testing.T) {
	// Regression: a completion callback that immediately submits a new
	// request to the same disk must not create concurrent service.
	eng := sim.NewEngine()
	d := NewDisk(eng, "d0")
	completions := 0
	mkChain := func() func() {
		remaining := 24 // plus the initial submit = 25 services each
		var chain func()
		chain = func() {
			completions++
			if remaining > 0 {
				remaining--
				d.Submit(1.0, chain)
			}
		}
		return chain
	}
	// Two independent chains competing for the same disk.
	d.Submit(1.0, mkChain())
	d.Submit(1.0, mkChain())
	eng.RunAll()
	if completions != 50 {
		t.Fatalf("completions = %d, want 50", completions)
	}
	// 50 serial 1s services must take exactly 50s; concurrency would
	// finish sooner.
	if math.Abs(eng.Now()-50) > 1e-9 {
		t.Errorf("drained at %v, want 50 (strictly serial)", eng.Now())
	}
	if math.Abs(d.BusySeconds()-50) > 1e-9 {
		t.Errorf("busy = %v, want 50", d.BusySeconds())
	}
}

func TestGroupCommitBatches(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(7, 0)
	l := NewLog(eng, dist.NewDeterministic(0.01), rng)
	l.SetGroupCommit(true)
	done := 0
	// First append starts a flush; nine more arrive during it and must
	// be batched into ONE second flush.
	l.Append(func() { done++ })
	eng.After(0.005, func() {
		for i := 0; i < 9; i++ {
			l.Append(func() { done++ })
		}
	})
	eng.RunAll()
	if done != 10 {
		t.Fatalf("done = %d, want 10", done)
	}
	if l.Flushes() != 2 {
		t.Errorf("flushes = %d, want 2 (1 + batched 9)", l.Flushes())
	}
	if l.MaxGroupSize() != 9 {
		t.Errorf("max group = %d, want 9", l.MaxGroupSize())
	}
	// Two deterministic 10ms flushes: all durable by t=0.02.
	if math.Abs(eng.Now()-0.02) > 1e-12 {
		t.Errorf("drained at %v, want 0.02", eng.Now())
	}
}

func TestGroupCommitOffIsSerial(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(8, 0)
	l := NewLog(eng, dist.NewDeterministic(0.01), rng)
	for i := 0; i < 5; i++ {
		l.Append(func() {})
	}
	eng.RunAll()
	if l.Flushes() != 5 {
		t.Errorf("flushes = %d, want 5 without group commit", l.Flushes())
	}
	if math.Abs(eng.Now()-0.05) > 1e-12 {
		t.Errorf("drained at %v, want 0.05", eng.Now())
	}
}

func TestGroupCommitThroughputAdvantage(t *testing.T) {
	// Under heavy commit traffic the grouped log sustains a higher
	// append rate than the serial log.
	run := func(group bool) (flushes uint64, drainTime float64) {
		eng := sim.NewEngine()
		l := NewLog(eng, dist.NewDeterministic(0.01), sim.NewRNG(9, 0))
		l.SetGroupCommit(group)
		g := sim.NewRNG(10, 0)
		for i := 0; i < 500; i++ {
			at := g.Float64() * 1.0 // 500 appends over 1 second
			eng.After(at, func() { l.Append(func() {}) })
		}
		eng.RunAll()
		return l.Flushes(), eng.Now()
	}
	gf, gt := run(true)
	sf, st := run(false)
	if gf >= sf {
		t.Errorf("grouped flushes (%d) should be far below serial (%d)", gf, sf)
	}
	if gt >= st {
		t.Errorf("grouped drain (%v) should beat serial (%v)", gt, st)
	}
}
