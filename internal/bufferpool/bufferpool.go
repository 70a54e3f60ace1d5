// Package bufferpool simulates the DBMS buffer pool. It is a real LRU
// cache over page identifiers: the workload generator produces page
// accesses (skewed hot/cold, like OLTP working sets), and the hit/miss
// outcome decides whether a transaction's logical read turns into
// physical disk I/O. Varying pool size against database size is how the
// paper turns the same benchmark into CPU-bound (everything cached,
// e.g. W_CPU-inventory: 1 GB data / 1 GB pool) or I/O-bound workloads
// (W_IO-inventory: 6 GB data / 100 MB pool).
//
// Page IDs are dense: every page of a database of DBPages pages has an
// ID in [0, DBPages), which is what AccessPattern.Sample produces. The
// pool indexes residency by page ID directly, so its index costs four
// bytes per page up to the largest ID it has seen.
package bufferpool

import (
	"fmt"
	"math"

	"extsched/internal/sim"
)

// lruNode is one arena slot of the pool's intrusive recency list.
// prev/next are arena indices; -1 terminates.
type lruNode struct {
	page       uint64
	prev, next int32
}

// Pool is an LRU page cache over dense page IDs (see the package
// doc): an access to page p costs memory for every ID up to p.
//
// The recency list is an intrusive doubly-linked list over a node
// arena rather than a container/list: the arena is allocated once, at
// capacity, and a node is reused in place on eviction, so steady-state
// accesses allocate nothing and warm-up never copies the arena. At
// fleet scale — a thousand simulated backends each warming a pool —
// per-insert element allocation was the dominant build cost.
//
// Residency is a slice indexed by page ID rather than a hash map:
// warm-up drives millions of probes per simulated stack, and hashing
// page IDs dominated building one.
type Pool struct {
	nodes      []lruNode // arena; cap is the capacity, slots recycle once full
	head, tail int32     // head = most recent, -1 = empty
	// slot[page] is page's arena index + 1; 0 means not resident. It
	// grows by doubling to cover the largest page accessed.
	slot   []int32
	hits   uint64
	misses uint64
}

// New returns a pool holding capacity pages (>= 1).
func New(capacity int) *Pool {
	if capacity < 1 {
		panic(fmt.Sprintf("bufferpool: capacity %d must be >= 1", capacity))
	}
	return &Pool{nodes: make([]lruNode, 0, capacity), head: -1, tail: -1}
}

// Capacity returns the pool size in pages.
func (p *Pool) Capacity() int { return cap(p.nodes) }

// Resident returns the number of cached pages.
func (p *Pool) Resident() int { return len(p.nodes) }

// unlink detaches arena node i from the recency list.
func (p *Pool) unlink(i int32) {
	n := p.nodes[i]
	if n.prev >= 0 {
		p.nodes[n.prev].next = n.next
	} else {
		p.head = n.next
	}
	if n.next >= 0 {
		p.nodes[n.next].prev = n.prev
	} else {
		p.tail = n.prev
	}
}

// pushFront makes arena node i the most recently used.
func (p *Pool) pushFront(i int32) {
	p.nodes[i].prev, p.nodes[i].next = -1, p.head
	if p.head >= 0 {
		p.nodes[p.head].prev = i
	}
	p.head = i
	if p.tail < 0 {
		p.tail = i
	}
}

// Hits returns the number of accesses served from the pool.
func (p *Pool) Hits() uint64 { return p.hits }

// Misses returns the number of accesses requiring disk I/O.
func (p *Pool) Misses() uint64 { return p.misses }

// HitRatio returns hits / (hits+misses), or 0 before any access.
func (p *Pool) HitRatio() float64 {
	total := p.hits + p.misses
	if total == 0 {
		return 0
	}
	return float64(p.hits) / float64(total)
}

// Access touches a page: returns true on hit. On miss the page is
// loaded (caller is responsible for charging the disk I/O), possibly
// evicting the least recently used page.
func (p *Pool) Access(page uint64) bool {
	if page >= uint64(len(p.slot)) {
		p.grow(page)
	} else if s := p.slot[page]; s != 0 {
		p.hits++
		if i := s - 1; p.head != i {
			p.unlink(i)
			p.pushFront(i)
		}
		return true
	}
	p.misses++
	var i int32
	if len(p.nodes) < cap(p.nodes) {
		i = int32(len(p.nodes))
		p.nodes = append(p.nodes, lruNode{page: page})
	} else {
		// Full: recycle the least recently used slot in place.
		i = p.tail
		p.slot[p.nodes[i].page] = 0
		p.unlink(i)
		p.nodes[i].page = page
	}
	p.slot[page] = i + 1
	p.pushFront(i)
	return false
}

// grow extends the slot index to cover page: to twice its length, or
// to page+1 when that is larger.
func (p *Pool) grow(page uint64) {
	n := max(2*len(p.slot), int(page)+1)
	slot := make([]int32, n)
	copy(slot, p.slot)
	p.slot = slot
}

// ResetStats clears hit/miss counters (contents stay, so a warmed pool
// can be measured in steady state).
func (p *Pool) ResetStats() {
	p.hits, p.misses = 0, 0
}

// AccessPattern generates page accesses with a hot/cold skew: a
// fraction HotAccess of accesses touch a hot set of HotFrac·DBPages
// pages, the rest are uniform over the full database. This is the
// standard OLTP locality model; with HotAccess=0.8, HotFrac=0.2 it is
// the classic 80/20 rule.
type AccessPattern struct {
	DBPages   uint64  // database size in pages
	HotFrac   float64 // fraction of pages in the hot set
	HotAccess float64 // probability an access goes to the hot set
}

// Validate checks the pattern's parameters.
func (a AccessPattern) Validate() error {
	if a.DBPages < 1 {
		return fmt.Errorf("bufferpool: DBPages %d must be >= 1", a.DBPages)
	}
	if a.HotFrac <= 0 || a.HotFrac > 1 {
		return fmt.Errorf("bufferpool: HotFrac %v must be in (0,1]", a.HotFrac)
	}
	if a.HotAccess < 0 || a.HotAccess > 1 {
		return fmt.Errorf("bufferpool: HotAccess %v must be in [0,1]", a.HotAccess)
	}
	return nil
}

// Sample draws a page id.
func (a AccessPattern) Sample(g *sim.RNG) uint64 {
	hot := uint64(float64(a.DBPages) * a.HotFrac)
	if hot < 1 {
		hot = 1
	}
	if g.Float64() < a.HotAccess {
		return g.Uint64() % hot
	}
	if a.DBPages == hot {
		return g.Uint64() % hot
	}
	return hot + g.Uint64()%(a.DBPages-hot)
}

// ExpectedMissRatio approximates the steady-state miss ratio of an LRU
// pool of the given capacity under this pattern using Che's
// characteristic-time approximation: a page with access probability p
// is resident with probability 1 − e^(−p·T), where T solves
// Σ_pages (1 − e^(−p·T)) = capacity. It captures the cold-access
// pollution that evicts hot pages, which a naive "hot pages stay
// cached" model misses. Used by the analytic jump-start; the simulator
// runs the real LRU.
func (a AccessPattern) ExpectedMissRatio(capacity int) float64 {
	total := float64(a.DBPages)
	c := float64(capacity)
	if c >= total {
		return 0
	}
	hot := math.Max(1, math.Floor(total*a.HotFrac))
	cold := total - hot
	pHot := a.HotAccess / hot
	var pCold float64
	if cold > 0 {
		pCold = (1 - a.HotAccess) / cold
	}
	// Occupancy as a function of the characteristic time T.
	occupancy := func(t float64) float64 {
		occ := hot * (1 - math.Exp(-pHot*t))
		if cold > 0 {
			occ += cold * (1 - math.Exp(-pCold*t))
		}
		return occ
	}
	// Bisect for T with occupancy(T) = capacity. Occupancy is
	// increasing in T from 0 to DBPages.
	lo, hi := 0.0, 1.0
	for occupancy(hi) < c {
		hi *= 2
		if hi > 1e18 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if occupancy(mid) < c {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (lo + hi) / 2
	miss := a.HotAccess * math.Exp(-pHot*t)
	if cold > 0 {
		miss += (1 - a.HotAccess) * math.Exp(-pCold*t)
	}
	return miss
}
