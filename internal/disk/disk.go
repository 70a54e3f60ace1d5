// Package disk simulates the storage subsystem: FCFS per-disk queues, a
// striped data array (the paper stripes the database evenly over 1–6
// IDE drives) and a dedicated log disk for commit-time WAL writes, the
// same layout as the paper's testbed (one drive reserved for the log).
//
// Request records are recycled: when a request completes or a queued
// request is canceled, its record returns to the disk's free list and
// a later Submit reuses it. Submit therefore hands out a Request handle
// that carries the record's generation, in the manner of sim.Handle. A
// handle goes stale once its request completes or leaves the queue,
// and Cancel on a stale handle is a no-op that never touches the
// record's new request. With the in-service request held by the disk
// and its completion callback bound once in NewDisk, Submit and
// completion allocate nothing in steady state.
package disk

import (
	"fmt"
	"math"
	"slices"

	"extsched/internal/dist"
	"extsched/internal/sim"
)

// request is the recycled per-I/O record.
type request struct {
	service  float64
	onDone   func()
	canceled bool
	gen      uint64
}

// Request is a handle to a submitted I/O. It is a value: copy it
// freely. The zero Request is a valid, permanently stale handle.
type Request struct {
	r   *request
	gen uint64
}

// Disk is a single FCFS device.
type Disk struct {
	eng  *sim.Engine
	name string
	// queue[head:] are the waiting requests in arrival order. Served
	// entries are skipped by advancing head, and the slice is compacted
	// only when an append would otherwise grow it.
	queue []*request
	head  int
	// cur is the request in service (nil when idle); finishFn, bound
	// once, completes it.
	cur      *request
	finishFn func()
	free     []*request
	// busyTime integrates seconds the device spent serving requests.
	busyTime  float64
	busySince float64
	served    uint64
}

// NewDisk returns an idle FCFS disk.
func NewDisk(eng *sim.Engine, name string) *Disk {
	d := &Disk{eng: eng, name: name}
	d.finishFn = d.finish
	return d
}

// Name returns the device name.
func (d *Disk) Name() string { return d.name }

// QueueLen returns the number of waiting requests (excluding the one in
// service).
func (d *Disk) QueueLen() int { return len(d.queue) - d.head }

// Served returns the number of completed requests.
func (d *Disk) Served() uint64 { return d.served }

// BusySeconds returns accumulated service time.
func (d *Disk) BusySeconds() float64 {
	if d.cur != nil {
		return d.busyTime + (d.eng.Now() - d.busySince)
	}
	return d.busyTime
}

// Submit enqueues a request with the given service time. onDone fires
// at completion.
func (d *Disk) Submit(service float64, onDone func()) Request {
	if service < 0 || math.IsNaN(service) || math.IsInf(service, 0) {
		panic(fmt.Sprintf("disk: invalid service time %v", service))
	}
	var r *request
	if n := len(d.free); n > 0 {
		r = d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
	} else {
		r = &request{}
	}
	*r = request{service: service, onDone: onDone, gen: r.gen}
	if len(d.queue) == cap(d.queue) && d.head >= len(d.queue)/2 {
		n := copy(d.queue, d.queue[d.head:])
		clear(d.queue[n:])
		d.queue, d.head = d.queue[:n], 0
	}
	d.queue = append(d.queue, r)
	h := Request{r: r, gen: r.gen}
	if d.cur == nil {
		d.startNext()
	}
	return h
}

// release retires a finished or dequeued record: the generation bump
// makes every outstanding handle to it stale.
func (d *Disk) release(r *request) {
	r.gen++
	r.onDone = nil
	d.free = append(d.free, r)
}

// Cancel drops a request that has not started service (transaction
// abort). A request already in service completes normally but its
// callback is suppressed. Canceling a completed request or a stale
// handle is a no-op.
func (d *Disk) Cancel(h Request) {
	r := h.r
	if r == nil || r.gen != h.gen {
		return
	}
	if r == d.cur {
		r.canceled = true
		return
	}
	for i := d.head; i < len(d.queue); i++ {
		if d.queue[i] == r {
			d.queue = slices.Delete(d.queue, i, i+1)
			d.release(r)
			return
		}
	}
}

// startNext puts the queue head in service, or idles the disk.
func (d *Disk) startNext() {
	if d.head == len(d.queue) {
		d.queue, d.head = d.queue[:0], 0
		return
	}
	r := d.queue[d.head]
	d.queue[d.head] = nil
	d.head++
	d.cur = r
	d.busySince = d.eng.Now()
	d.eng.After(r.service, d.finishFn)
}

// finish completes the request in service.
func (d *Disk) finish() {
	r := d.cur
	d.cur = nil
	d.busyTime += r.service
	d.served++
	// Start the next queued request BEFORE the completion callback:
	// onDone may synchronously submit a follow-up I/O to this very
	// disk, and it must queue behind the next request rather than start
	// a second concurrent service.
	d.startNext()
	onDone, canceled := r.onDone, r.canceled
	d.release(r)
	if !canceled {
		onDone()
	}
}

// Array is a striped set of data disks: each I/O goes to a uniformly
// random stripe, matching the paper's assumption that "the data is
// evenly striped over the disks".
type Array struct {
	disks   []*Disk
	service dist.Distribution
	rng     *sim.RNG
}

// NewArray builds n striped disks whose per-request service time is
// drawn from service.
func NewArray(eng *sim.Engine, n int, service dist.Distribution, rng *sim.RNG) *Array {
	if n < 1 {
		panic(fmt.Sprintf("disk: array needs >= 1 disk, got %d", n))
	}
	a := &Array{service: service, rng: rng}
	for i := 0; i < n; i++ {
		a.disks = append(a.disks, NewDisk(eng, fmt.Sprintf("data%d", i)))
	}
	return a
}

// Disks exposes the individual devices (for metrics).
func (a *Array) Disks() []*Disk { return a.disks }

// Size returns the number of disks.
func (a *Array) Size() int { return len(a.disks) }

// SubmitIO issues one I/O to a uniformly chosen stripe with a service
// time drawn from the array's distribution. It returns the request
// handle together with the disk it landed on (for cancellation).
func (a *Array) SubmitIO(onDone func()) (Request, *Disk) {
	d := a.disks[a.rng.IntN(len(a.disks))]
	return d.Submit(a.service.Sample(a.rng), onDone), d
}

// Log is the dedicated log disk. Sequential WAL appends are much
// cheaper than random data I/O, so it takes its own (smaller) service
// distribution. With GroupCommit enabled, commit records arriving
// while a flush is in progress are batched into the next flush — one
// device write durably commits the whole group, which is how real
// engines keep the log from becoming the bottleneck at high MPLs.
type Log struct {
	disk        *Disk
	service     dist.Distribution
	rng         *sim.RNG
	groupCommit bool
	flushing    bool
	waiters     []func()
	flushes     uint64
	appends     uint64
	maxGroup    int
}

// NewLog returns the log device (no group commit).
func NewLog(eng *sim.Engine, service dist.Distribution, rng *sim.RNG) *Log {
	return &Log{disk: NewDisk(eng, "log"), service: service, rng: rng}
}

// SetGroupCommit toggles commit-record batching.
func (l *Log) SetGroupCommit(on bool) { l.groupCommit = on }

// Disk exposes the underlying device.
func (l *Log) Disk() *Disk { return l.disk }

// Flushes returns the number of device writes issued.
func (l *Log) Flushes() uint64 { return l.flushes }

// Appends returns the number of commit records appended.
func (l *Log) Appends() uint64 { return l.appends }

// MaxGroupSize returns the largest commit group flushed together.
func (l *Log) MaxGroupSize() int { return l.maxGroup }

// Append writes one commit record; onDone fires when it is durable.
func (l *Log) Append(onDone func()) {
	l.appends++
	if !l.groupCommit {
		l.flushes++
		if l.maxGroup < 1 {
			l.maxGroup = 1
		}
		l.disk.Submit(l.service.Sample(l.rng), onDone)
		return
	}
	l.waiters = append(l.waiters, onDone)
	if !l.flushing {
		l.flush()
	}
}

// flush writes the current group in a single device operation.
func (l *Log) flush() {
	group := l.waiters
	l.waiters = nil
	if len(group) == 0 {
		l.flushing = false
		return
	}
	if len(group) > l.maxGroup {
		l.maxGroup = len(group)
	}
	l.flushing = true
	l.flushes++
	l.disk.Submit(l.service.Sample(l.rng), func() {
		for _, cb := range group {
			cb()
		}
		// Records that arrived during this flush form the next group.
		l.flush()
	})
}
