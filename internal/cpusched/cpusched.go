// Package cpusched simulates a multi-core CPU shared processor-sharing
// style, the way a Linux box runs concurrent DBMS worker processes.
//
// Each of the C cores has unit service rate. When n jobs are resident,
// capacity is divided by weighted water-filling: a job's rate is
// proportional to its weight but never exceeds one core (a single
// process cannot use two CPUs at once — the same limitation the paper
// notes for its analytic model). With equal weights and n > C, every
// job runs at C/n; with n <= C every job runs at rate 1.
//
// Weights implement the paper's internal CPU prioritization (Section
// 5.2): "renice -20 vs 20" maps to a large weight ratio between high-
// and low-priority transactions.
//
// Job records are recycled: when a job completes or is canceled its
// record returns to the CPU's free list and a later Submit reuses it.
// Submit therefore hands out a Job handle that carries the record's
// generation, in the manner of sim.Handle. A handle goes stale the
// moment its job completes or is canceled, and every operation on a
// stale handle is harmless: Cancel and SetWeight do nothing,
// Remaining and Rate report zero, and the record's new job is never
// touched. With one armed completion event per CPU, bound once in New,
// Submit and completion allocate nothing in steady state.
package cpusched

import (
	"fmt"
	"math"

	"extsched/internal/sim"
)

// job is the recycled per-job record.
type job struct {
	remaining float64 // seconds of CPU work left at rate 1
	weight    float64
	rate      float64 // current service rate (cores)
	onDone    func()
	canceled  bool // zero-work job canceled before its completion event
	idx       int  // position in the CPU's job slice; -1 when absent
	gen       uint64
}

// Job is a handle to a submitted job. It is a value: copy it freely.
// The zero Job is a valid, permanently stale handle.
type Job struct {
	j   *job
	gen uint64
}

// live returns the record while the handle is current, else nil.
func (h Job) live() *job {
	if h.j == nil || h.j.gen != h.gen {
		return nil
	}
	return h.j
}

// Remaining returns the job's outstanding CPU work in seconds (zero
// once it has completed or been canceled).
func (h Job) Remaining() float64 {
	if j := h.live(); j != nil {
		return j.remaining
	}
	return 0
}

// Rate returns the job's current service rate in cores (zero once it
// has completed or been canceled).
func (h Job) Rate() float64 {
	if j := h.live(); j != nil {
		return j.rate
	}
	return 0
}

// CPU is the shared multi-core resource.
type CPU struct {
	eng        *sim.Engine
	cores      int
	jobs       []*job
	free       []*job
	lastUpdate float64
	// busyTime integrates total busy core-seconds for utilization
	// reporting.
	busyTime float64
	// nextEv fires when nextJob — the earliest finisher at current
	// rates — completes. Keeping a single armed event (instead of one
	// per job) makes membership changes O(n) arithmetic without event-
	// heap churn.
	nextEv  sim.Handle
	nextJob *job
	// fireFn completes nextJob; bound once so arming allocates nothing.
	fireFn func()
	// scratch is reused by the water-filling pass to avoid a per-event
	// allocation.
	scratch []*job
}

// New returns a CPU pool with the given core count (>= 1).
func New(eng *sim.Engine, cores int) *CPU {
	if cores < 1 {
		panic(fmt.Sprintf("cpusched: cores %d must be >= 1", cores))
	}
	c := &CPU{eng: eng, cores: cores, lastUpdate: eng.Now()}
	c.fireFn = func() { c.complete(c.nextJob) }
	return c
}

// Cores returns the core count.
func (c *CPU) Cores() int { return c.cores }

// Resident returns the number of resident jobs.
func (c *CPU) Resident() int { return len(c.jobs) }

// BusyCoreSeconds returns the integral of in-use cores over time,
// advanced to the current instant.
func (c *CPU) BusyCoreSeconds() float64 {
	c.advance()
	return c.busyTime
}

// Submit adds a job requiring work seconds of CPU at rate 1, with the
// given scheduling weight (> 0). onDone fires when the work completes.
func (c *CPU) Submit(work, weight float64, onDone func()) Job {
	if work < 0 || math.IsNaN(work) || math.IsInf(work, 0) {
		panic(fmt.Sprintf("cpusched: invalid work %v", work))
	}
	if weight <= 0 {
		panic(fmt.Sprintf("cpusched: weight %v must be positive", weight))
	}
	c.advance()
	var j *job
	if n := len(c.free); n > 0 {
		j = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		j = &job{}
	}
	*j = job{remaining: work, weight: weight, onDone: onDone, idx: -1, gen: j.gen}
	h := Job{j: j, gen: j.gen}
	if work == 0 {
		// Complete immediately but asynchronously, preserving the
		// invariant that callbacks never run inside Submit.
		c.eng.After(0, func() {
			canceled := j.canceled
			c.release(j)
			if !canceled {
				onDone()
			}
		})
		return h
	}
	j.idx = len(c.jobs)
	c.jobs = append(c.jobs, j)
	c.reschedule()
	return h
}

// release retires a finished or canceled record: the generation bump
// makes every outstanding handle to it stale.
func (c *CPU) release(j *job) {
	j.gen++
	j.onDone = nil
	j.idx = -1
	c.free = append(c.free, j)
}

// Cancel removes a job before completion (transaction abort). Safe to
// call on completed jobs and stale handles (no-op).
func (c *CPU) Cancel(h Job) {
	j := h.live()
	if j == nil {
		return
	}
	if j.idx < 0 {
		// Zero-work job: its completion event releases the record.
		j.canceled = true
		return
	}
	c.advance()
	c.remove(j)
	c.release(j)
	c.reschedule()
}

// remove drops j from the job slice in O(1) by swapping with the tail.
func (c *CPU) remove(j *job) {
	i := j.idx
	if i < 0 || i >= len(c.jobs) || c.jobs[i] != j {
		return
	}
	last := len(c.jobs) - 1
	c.jobs[i] = c.jobs[last]
	c.jobs[i].idx = i
	c.jobs[last] = nil
	c.jobs = c.jobs[:last]
	j.idx = -1
}

// SetWeight changes a resident job's weight (e.g. a priority change
// mid-flight). No-op for finished jobs and stale handles.
func (c *CPU) SetWeight(h Job, weight float64) {
	if weight <= 0 {
		panic(fmt.Sprintf("cpusched: weight %v must be positive", weight))
	}
	j := h.live()
	if j == nil || j.idx < 0 {
		return
	}
	c.advance()
	j.weight = weight
	c.reschedule()
}

// advance drains elapsed time into each resident job's remaining work
// at its current rate, and into the busy-time integral.
func (c *CPU) advance() {
	now := c.eng.Now()
	dt := now - c.lastUpdate
	if dt <= 0 {
		c.lastUpdate = now
		return
	}
	for _, j := range c.jobs {
		j.remaining -= j.rate * dt
		if j.remaining < 0 {
			j.remaining = 0
		}
		c.busyTime += j.rate * dt
	}
	c.lastUpdate = now
}

// reschedule recomputes rates by weighted water-filling and re-arms
// the single next-completion event.
func (c *CPU) reschedule() {
	c.eng.Cancel(c.nextEv)
	c.nextEv, c.nextJob = sim.Handle{}, nil
	n := len(c.jobs)
	if n == 0 {
		return
	}
	// Water-filling: allocate min(cores, n) total rate; each job's
	// share is proportional to weight, capped at 1 core. Jobs at the
	// cap release surplus to the rest.
	capacity := float64(c.cores)
	if float64(n) < capacity {
		capacity = float64(n)
	}
	// Fast path 1: fewer jobs than cores — everyone runs at full rate.
	if n <= c.cores {
		for _, j := range c.jobs {
			j.rate = 1
		}
		c.arm()
		return
	}
	// Fast path 2: proportional shares with no job hitting the 1-core
	// cap — the overwhelmingly common case with equal weights.
	totalW := 0.0
	maxW := 0.0
	for _, j := range c.jobs {
		totalW += j.weight
		if j.weight > maxW {
			maxW = j.weight
		}
	}
	if maxW*capacity/totalW < 1 {
		share := capacity / totalW
		for _, j := range c.jobs {
			j.rate = j.weight * share
		}
		c.arm()
		return
	}
	// General water-filling with the 1-core cap.
	for _, j := range c.jobs {
		j.rate = 0
	}
	uncapped := append(c.scratch[:0], c.jobs...)
	defer func() { c.scratch = uncapped[:0] }()
	remaining := capacity
	for len(uncapped) > 0 && remaining > 1e-15 {
		totalW := 0.0
		for _, j := range uncapped {
			totalW += j.weight
		}
		capped := false
		share := remaining / totalW
		kept := uncapped[:0]
		for _, j := range uncapped {
			if j.rate+j.weight*share >= 1 {
				remaining -= 1 - j.rate
				j.rate = 1
				capped = true
			} else {
				kept = append(kept, j)
			}
		}
		uncapped = kept
		if !capped {
			for _, j := range uncapped {
				j.rate += j.weight * share
			}
			remaining = 0
		}
	}
	c.arm()
}

// arm schedules one event for the earliest finisher at current rates.
func (c *CPU) arm() {
	var soonest *job
	best := math.Inf(1)
	for _, j := range c.jobs {
		if j.rate <= 0 {
			continue // starved (possible transiently with extreme weights)
		}
		if f := j.remaining / j.rate; f < best {
			best, soonest = f, j
		}
	}
	if soonest == nil {
		return
	}
	c.nextJob = soonest
	c.nextEv = c.eng.At(c.eng.Now()+best, c.fireFn)
}

// complete finishes a job whose remaining work reached zero. The
// record is released before onDone runs, so a follow-up Submit from
// the callback may reuse it.
func (c *CPU) complete(j *job) {
	c.advance()
	c.remove(j)
	onDone := j.onDone
	c.release(j)
	c.reschedule()
	onDone()
}
