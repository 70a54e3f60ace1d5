package bufferpool

import (
	"container/list"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"extsched/internal/sim"
)

func TestLRUBasics(t *testing.T) {
	p := New(2)
	if p.Access(1) {
		t.Error("first access should miss")
	}
	if !p.Access(1) {
		t.Error("second access should hit")
	}
	p.Access(2) // miss, pool = {1,2}
	p.Access(3) // miss, evicts 1 (LRU)
	if p.Access(1) {
		t.Error("evicted page should miss")
	}
	// Now pool = {3,1} (2 was LRU after 3's insert? order: access(2)
	// → front 2; access(3) → evict 1, front 3, pool {3,2}; access(1)
	// → evict 2, pool {1,3}).
	if !p.Access(3) {
		t.Error("page 3 should still be resident")
	}
	if p.Resident() != 2 {
		t.Errorf("resident = %d, want 2", p.Resident())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	p := New(3)
	p.Access(1)
	p.Access(2)
	p.Access(3)
	p.Access(1) // 1 now MRU; LRU order: 2,3,1
	p.Access(4) // evicts 2
	if p.Access(2) {
		t.Error("page 2 should have been evicted")
	}
	// Accessing 2 above evicted 3 (LRU after: 3,1,4 → evict 3).
	if p.Access(3) {
		t.Error("page 3 should have been evicted")
	}
}

func TestHitRatioCounters(t *testing.T) {
	p := New(10)
	for i := uint64(0); i < 10; i++ {
		p.Access(i)
	}
	for i := uint64(0); i < 10; i++ {
		p.Access(i)
	}
	if p.Hits() != 10 || p.Misses() != 10 {
		t.Errorf("hits/misses = %d/%d, want 10/10", p.Hits(), p.Misses())
	}
	if p.HitRatio() != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", p.HitRatio())
	}
	p.ResetStats()
	if p.Hits() != 0 || p.Misses() != 0 || p.HitRatio() != 0 {
		t.Error("ResetStats did not clear counters")
	}
	if p.Resident() != 10 {
		t.Error("ResetStats evicted pages")
	}
}

func TestResidentNeverExceedsCapacityProperty(t *testing.T) {
	f := func(capRaw uint8, accesses []uint16) bool {
		capacity := 1 + int(capRaw%32)
		p := New(capacity)
		for _, a := range accesses {
			p.Access(uint64(a))
			if p.Resident() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFullyCachedNoMissesAfterWarmup(t *testing.T) {
	p := New(100)
	pat := AccessPattern{DBPages: 100, HotFrac: 0.2, HotAccess: 0.8}
	g := sim.NewRNG(1, 0)
	for i := 0; i < 1000; i++ {
		p.Access(pat.Sample(g))
	}
	p.ResetStats()
	for i := 0; i < 10000; i++ {
		p.Access(pat.Sample(g))
	}
	// DB fits entirely: after warmup the miss ratio tends to 0 (cold
	// pages may still trickle in).
	if r := p.HitRatio(); r < 0.97 {
		t.Errorf("hit ratio = %v, want > 0.97 for fully cached DB", r)
	}
}

func TestSkewedPatternHitRatio(t *testing.T) {
	// Pool covers the hot set, but cold accesses pollute the LRU, so
	// the hit ratio lands well below HotAccess yet far above the
	// no-locality baseline capacity/DBPages = 0.1.
	pat := AccessPattern{DBPages: 10000, HotFrac: 0.1, HotAccess: 0.9}
	p := New(1000)
	g := sim.NewRNG(2, 0)
	for i := 0; i < 20000; i++ {
		p.Access(pat.Sample(g))
	}
	p.ResetStats()
	for i := 0; i < 100000; i++ {
		p.Access(pat.Sample(g))
	}
	if r := p.HitRatio(); r < 0.5 || r > 0.9 {
		t.Errorf("hit ratio = %v, want in (0.5, 0.9)", r)
	}
}

func TestExpectedMissRatioMatchesSimulation(t *testing.T) {
	cases := []struct {
		pat      AccessPattern
		capacity int
	}{
		{AccessPattern{DBPages: 10000, HotFrac: 0.1, HotAccess: 0.9}, 1000},
		{AccessPattern{DBPages: 10000, HotFrac: 0.2, HotAccess: 0.8}, 500},
		{AccessPattern{DBPages: 10000, HotFrac: 0.2, HotAccess: 0.8}, 5000},
	}
	for _, tc := range cases {
		p := New(tc.capacity)
		g := sim.NewRNG(3, 0)
		for i := 0; i < 50000; i++ {
			p.Access(tc.pat.Sample(g))
		}
		p.ResetStats()
		for i := 0; i < 200000; i++ {
			p.Access(tc.pat.Sample(g))
		}
		measured := 1 - p.HitRatio()
		predicted := tc.pat.ExpectedMissRatio(tc.capacity)
		if math.Abs(measured-predicted) > 0.05 {
			t.Errorf("%+v cap=%d: measured miss %v, predicted %v",
				tc.pat, tc.capacity, measured, predicted)
		}
	}
}

func TestExpectedMissRatioBounds(t *testing.T) {
	pat := AccessPattern{DBPages: 1000, HotFrac: 0.2, HotAccess: 0.8}
	if r := pat.ExpectedMissRatio(1000); r != 0 {
		t.Errorf("fully cached miss ratio = %v, want 0", r)
	}
	if r := pat.ExpectedMissRatio(2000); r != 0 {
		t.Errorf("oversized pool miss ratio = %v, want 0", r)
	}
	prev := 1.0
	for _, c := range []int{10, 100, 200, 400, 800, 999} {
		r := pat.ExpectedMissRatio(c)
		if r < 0 || r > 1 {
			t.Fatalf("miss ratio %v outside [0,1] at capacity %d", r, c)
		}
		if r > prev+1e-12 {
			t.Errorf("miss ratio not non-increasing: %v after %v at cap %d", r, prev, c)
		}
		prev = r
	}
}

func TestAccessPatternValidate(t *testing.T) {
	good := AccessPattern{DBPages: 10, HotFrac: 0.5, HotAccess: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid pattern rejected: %v", err)
	}
	for _, bad := range []AccessPattern{
		{DBPages: 0, HotFrac: 0.5, HotAccess: 0.5},
		{DBPages: 10, HotFrac: 0, HotAccess: 0.5},
		{DBPages: 10, HotFrac: 1.5, HotAccess: 0.5},
		{DBPages: 10, HotFrac: 0.5, HotAccess: -0.1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid pattern accepted: %+v", bad)
		}
	}
}

func TestSampleWithinRange(t *testing.T) {
	pat := AccessPattern{DBPages: 500, HotFrac: 0.1, HotAccess: 0.7}
	g := sim.NewRNG(4, 0)
	for i := 0; i < 10000; i++ {
		page := pat.Sample(g)
		if page >= 500 {
			t.Fatalf("sampled page %d outside DB of 500 pages", page)
		}
	}
}

func TestCapacityValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

// refLRU is the reference LRU the pool is checked against: a map from
// page to list element plus a recency list, front = most recent.
type refLRU struct {
	capacity     int
	order        *list.List
	pages        map[uint64]*list.Element
	hits, misses uint64
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{capacity: capacity, order: list.New(), pages: map[uint64]*list.Element{}}
}

func (r *refLRU) access(page uint64) bool {
	if e, ok := r.pages[page]; ok {
		r.hits++
		r.order.MoveToFront(e)
		return true
	}
	r.misses++
	if r.order.Len() == r.capacity {
		delete(r.pages, r.order.Remove(r.order.Back()).(uint64))
	}
	r.pages[page] = r.order.PushFront(page)
	return false
}

// TestPoolMatchesReferenceLRU drives the pool and the reference LRU with
// the same seeded page sequences and requires identical outcomes and
// counters on every access.
func TestPoolMatchesReferenceLRU(t *testing.T) {
	// boundaries probes the slot index at its edges while it is small:
	// the ID equal to its length (grows by doubling), its last ID, and
	// an ID past twice its length (grows to page+1), interleaved with
	// revisits below the edge.
	boundaries := func(g *sim.RNG, i, slotLen int) uint64 {
		if slotLen > 1<<16 || i%4 == 0 {
			return g.Uint64() % uint64(max(slotLen, 8))
		}
		switch i % 4 {
		case 1:
			return uint64(slotLen)
		case 2:
			return uint64(slotLen - 1)
		default:
			return uint64(2*slotLen) + g.Uint64()%3
		}
	}
	skewed := AccessPattern{DBPages: 5000, HotFrac: 0.1, HotAccess: 0.8}
	cases := []struct {
		name     string
		capacity int
		n        int
		page     func(g *sim.RNG, i, slotLen int) uint64
	}{
		{"capacity1", 1, 5000, func(g *sim.RNG, _, _ int) uint64 { return g.Uint64() % 6 }},
		{"capacity1-wide", 1, 5000, func(g *sim.RNG, _, _ int) uint64 { return g.Uint64() % 3000 }},
		{"capacity-equals-space", 64, 20000, func(g *sim.RNG, _, _ int) uint64 { return g.Uint64() % 64 }},
		{"capacity-exceeds-space", 500, 20000, func(g *sim.RNG, _, _ int) uint64 { return g.Uint64() % 300 }},
		{"rising-max", 40, 20000, func(g *sim.RNG, i, _ int) uint64 { return g.Uint64() % uint64(1+i) }},
		{"growth-boundaries", 10, 20000, boundaries},
		{"growth-boundaries-large", 5000, 20000, boundaries},
		{"skewed", 100, 50000, func(g *sim.RNG, _, _ int) uint64 { return skewed.Sample(g) }},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, ref := New(tc.capacity), newRefLRU(tc.capacity)
			g := sim.NewRNG(uint64(100+ci), 0)
			var doubled, jumped int
			for i := 0; i < tc.n; i++ {
				before := len(p.slot)
				page := tc.page(g, i, before)
				got, want := p.Access(page), ref.access(page)
				switch after := len(p.slot); {
				case after == before:
				case after == 2*before:
					doubled++
				default:
					jumped++
				}
				if got != want || p.Hits() != ref.hits || p.Misses() != ref.misses || p.Resident() != ref.order.Len() {
					t.Fatalf("access %d (page %d): hit=%v hits=%d misses=%d resident=%d; reference hit=%v hits=%d misses=%d resident=%d",
						i, page, got, p.Hits(), p.Misses(), p.Resident(), want, ref.hits, ref.misses, ref.order.Len())
				}
			}
			if strings.HasPrefix(tc.name, "growth-boundaries") && (doubled < 3 || jumped < 3) {
				t.Errorf("slot index doubled %d and jumped %d times, want >= 3 each", doubled, jumped)
			}
		})
	}
}

// TestAccessSteadyStateAllocsZero: once the slot index covers the page
// space and the arena is full, hits and evicting misses allocate
// nothing.
func TestAccessSteadyStateAllocsZero(t *testing.T) {
	const space = 4096
	p := New(1000)
	p.Access(space - 1)
	g := sim.NewRNG(7, 0)
	pages := make([]uint64, 1<<12)
	for i := range pages {
		pages[i] = g.Uint64() % space
	}
	for _, pg := range pages {
		p.Access(pg)
	}
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		p.Access(pages[i%len(pages)])
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state Access: %v allocs/op, want 0", allocs)
	}
	if p.Hits() == 0 || p.Misses() <= 1000 {
		t.Fatalf("sequence did not exercise both hits and evictions: hits=%d misses=%d", p.Hits(), p.Misses())
	}
}
