package controller

import (
	"testing"

	"extsched/internal/core"
	"extsched/internal/sim"
)

// fakeClassGate is a scriptable ClassGate: the test sets the measured
// percentile and completion counts per window and watches the
// partition the loop applies.
type fakeClassGate struct {
	mpl        int
	limits     map[core.Class]int
	percentile float64
	m          core.Metrics
	resets     int
}

func (g *fakeClassGate) MPL() int      { return g.mpl }
func (g *fakeClassGate) SetMPL(n int)  { g.mpl = n }
func (g *fakeClassGate) QueueLen() int { return 1 }
func (g *fakeClassGate) Inside() int   { return g.mpl }
func (g *fakeClassGate) Metrics() core.Metrics {
	return g.m
}
func (g *fakeClassGate) ResetMetrics() { g.resets++ }
func (g *fakeClassGate) SetClassLimits(l map[core.Class]int) {
	g.limits = l
}
func (g *fakeClassGate) ClassLimits() map[core.Class]int { return g.limits }
func (g *fakeClassGate) ClassResponseTimePercentile(c core.Class, p float64) float64 {
	return g.percentile
}

// window primes the fake gate with a closed-window's worth of
// completions (60 total, 12 high) at the given measured percentile.
func (g *fakeClassGate) window(p float64) {
	g.percentile = p
	g.m = core.Metrics{Completed: 60, Classes: []core.ClassMetric{{Class: core.ClassLow}, {Class: core.ClassHigh}}}
	for i := 0; i < 12; i++ {
		g.m.Classes[1].RT.Add(p)
	}
	for i := 0; i < 48; i++ {
		g.m.Classes[0].RT.Add(p)
	}
}

// checkPartition asserts the SLO invariant the property tests pin: the
// class limits always sum to the gate's MPL with each side >= 1.
func checkPartition(t *testing.T, g *fakeClassGate) {
	t.Helper()
	h, l := g.limits[core.ClassHigh], g.limits[core.ClassLow]
	if h+l != g.mpl {
		t.Fatalf("partition %d+%d != MPL %d", h, l, g.mpl)
	}
	if h < 1 || l < 1 {
		t.Fatalf("partition %d/%d has a class below 1", h, l)
	}
}

func TestSLOControllerSteersPartition(t *testing.T) {
	g := &fakeClassGate{mpl: 10}
	c, err := NewSLO(sim.NewWallClock(), g, SLOConfig{
		Target:       SLOTarget{Class: core.ClassHigh, Target: 1.0},
		GiveBackHold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g)
	if g.limits[core.ClassHigh] != 5 {
		t.Fatalf("initial high share %d, want even split 5", g.limits[core.ClassHigh])
	}

	// Violated windows pull slots toward the SLO class, one per window.
	for i := 1; i <= 3; i++ {
		g.window(2.0)
		c.Observe()
		checkPartition(t, g)
		if got := g.limits[core.ClassHigh]; got != 5+i {
			t.Fatalf("after %d violated windows: high share %d, want %d", i, got, 5+i)
		}
	}
	// The share cannot push the other class below its floor.
	for i := 0; i < 20; i++ {
		g.window(2.0)
		c.Observe()
		checkPartition(t, g)
	}
	if g.limits[core.ClassLow] != 1 {
		t.Fatalf("low floor violated: %d", g.limits[core.ClassLow])
	}

	// Give-back is paced: it takes GiveBackHold consecutive calm
	// windows per returned slot.
	high := g.limits[core.ClassHigh]
	g.window(0.1)
	c.Observe()
	checkPartition(t, g)
	if g.limits[core.ClassHigh] != high {
		t.Fatal("gave back after a single calm window")
	}
	g.window(0.1)
	c.Observe()
	checkPartition(t, g)
	if g.limits[core.ClassHigh] != high-1 {
		t.Fatalf("high share %d after %d calm windows, want %d", g.limits[core.ClassHigh], 2, high-1)
	}

	// In-band windows (between margin and target) hold AND reset the
	// give-back count.
	g.window(0.8)
	c.Observe()
	g.window(0.1)
	c.Observe()
	checkPartition(t, g)
	if g.limits[core.ClassHigh] != high-1 {
		t.Fatal("give-back pacing not reset by an in-band window")
	}

	// An MPL change re-spreads at the next reaction, invariant intact.
	g.SetMPL(6)
	g.window(0.8)
	c.Observe()
	checkPartition(t, g)

	if c.Iterations() == 0 || len(c.History()) != min(c.Iterations(), historyLen) {
		t.Fatalf("history bookkeeping broken: %d vs %d", c.Iterations(), len(c.History()))
	}
}

// TestSLOControllerWindowGates: windows without enough traffic —
// overall or from the SLO class — must not trigger a reaction.
func TestSLOControllerWindowGates(t *testing.T) {
	g := &fakeClassGate{mpl: 8}
	c, err := NewSLO(sim.NewWallClock(), g, SLOConfig{
		Target: SLOTarget{Class: core.ClassHigh, Target: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Too few completions overall.
	g.percentile = 5
	g.m = core.Metrics{Completed: 10}
	c.Observe()
	if c.Iterations() != 0 {
		t.Fatal("reacted on an under-observed window")
	}
	// Enough overall, none from the SLO class.
	g.m = core.Metrics{Completed: 100}
	c.Observe()
	if c.Iterations() != 0 {
		t.Fatal("reacted with zero SLO-class completions")
	}
}

func TestSLOControllerValidation(t *testing.T) {
	g := &fakeClassGate{mpl: 8}
	cases := []SLOConfig{
		{Target: SLOTarget{Class: core.ClassHigh}},                             // no target
		{Target: SLOTarget{Class: core.ClassHigh, Target: 1, Percentile: 100}}, // bad percentile
		{Target: SLOTarget{Class: core.ClassHigh, Target: 1}, Margin: 1.5},     // bad margin
	}
	for i, cfg := range cases {
		if _, err := NewSLO(sim.NewWallClock(), g, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	// An unset (or equal) OtherClass defaults to the complement: a
	// low-class SLO partitions against high.
	if _, err := NewSLO(sim.NewWallClock(), &fakeClassGate{mpl: 8}, SLOConfig{
		Target: SLOTarget{Class: core.ClassLow, Target: 1},
	}); err != nil {
		t.Errorf("complement defaulting broken: %v", err)
	}
	// MPL too small to partition.
	if _, err := NewSLO(sim.NewWallClock(), &fakeClassGate{mpl: 1}, SLOConfig{
		Target: SLOTarget{Class: core.ClassHigh, Target: 1},
	}); err == nil {
		t.Error("MPL 1 accepted for a two-sided partition")
	}
}

// execBackend parks every dispatched item for the test to complete.
type execBackend struct{ items []*core.Item }

func (b *execBackend) Exec(it *core.Item) { b.items = append(b.items, it) }

// TestSLOWindowCountsTargetClassOnly drives the loop on a real
// frontend with three tenant classes: completions of other classes
// fill the window's overall count but not the SLO class's own, so the
// loop must keep waiting rather than react on a class-0 window that
// holds only two class-0 samples.
func TestSLOWindowCountsTargetClassOnly(t *testing.T) {
	eng := sim.NewEngine()
	be := &execBackend{}
	fe := core.New(eng.Clock(), be, 8, nil)
	fe.EnablePercentiles(64, 1)
	c, err := NewSLO(eng.Clock(), fe, SLOConfig{
		Target:          SLOTarget{Class: core.ClassLow, Target: 1.0},
		MinObservations: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	complete := func(class core.Class, n int) {
		for i := 0; i < n; i++ {
			fe.Submit(&core.Item{Class: class}, nil)
			it := be.items[len(be.items)-1]
			fe.Complete(it, core.Outcome{})
		}
	}
	complete(0, 2)
	complete(2, 30)
	c.Observe()
	if m := fe.Metrics(); m.Completed != 32 {
		t.Fatalf("window reset: completed = %d, want 32", m.Completed)
	}
	if n := c.Iterations(); n != 0 {
		t.Fatalf("loop reacted %d times on a window with 2 SLO-class completions", n)
	}
}
