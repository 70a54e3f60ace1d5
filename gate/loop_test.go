package gate

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// gateLoop enables, disables and reports one kind of control loop.
type gateLoop struct {
	name    string
	enable  func(*Gate) error
	disable func(*Gate)
	enabled func(*Gate) bool
}

// gateLoops are the three loops a gate runs, each configured so that
// no window closes within a few hundred completions.
var gateLoops = []gateLoop{
	{"autotune",
		func(g *Gate) error {
			return g.EnableAutoTune(TuneConfig{MaxThroughputLoss: 0.05, ReferenceThroughput: 100, MinObservations: 1000})
		},
		(*Gate).DisableAutoTune,
		func(g *Gate) bool { return g.TuneStatus().Enabled }},
	{"slo",
		func(g *Gate) error {
			return g.EnableSLOTune(SLOTuneConfig{Class: ClassHigh, Target: 0.1, MinObservations: 1000})
		},
		(*Gate).DisableSLOTune,
		func(g *Gate) bool { return g.SLOTuneStatus().Enabled }},
	{"fairness",
		func(g *Gate) error {
			return g.EnableFairness(FairnessConfig{Weights: map[Class]float64{ClassLow: 1, ClassHigh: 3}, MinObservations: 1000, Strict: true})
		},
		(*Gate).DisableFairness,
		func(g *Gate) bool { return g.FairnessStatus().Enabled }},
}

// newLoopGate returns a gate every loop can attach to: a finite limit
// wide enough to partition, and percentile sampling for the SLO loop.
func newLoopGate(t *testing.T) *Gate {
	t.Helper()
	g, err := New(Config{Limit: 6, PercentileSamples: 64})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// serve pushes n requests through g, alternating the two classes.
func serve(t *testing.T, g *Gate, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tk, err := g.AcquireRequest(context.Background(), Request{Class: Class(i % 2)})
		if err != nil {
			t.Fatal(err)
		}
		tk.Release(Result{})
	}
}

// TestLoopExclusionMatrix: with one loop attached, enabling a loop of
// another kind fails with the slot's conflict error and leaves the
// attached loop, the metrics window and the class partition as they
// were; enabling the same kind again replaces the loop; and once a
// loop is disabled every other kind can attach.
func TestLoopExclusionMatrix(t *testing.T) {
	for _, a := range gateLoops {
		for _, b := range gateLoops {
			if a.name == b.name {
				continue
			}
			g := newLoopGate(t)
			if err := a.enable(g); err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			serve(t, g, 10)
			loop, limits, completed := g.loop.Loop(), g.ClassLimits(), g.Stats().Completed
			if err := b.enable(g); err == nil || !strings.Contains(err.Error(), "share the metrics window") {
				t.Errorf("%s after %s: err = %v, want a conflict", b.name, a.name, err)
				continue
			}
			if g.loop.Loop() != loop || !a.enabled(g) || b.enabled(g) {
				t.Errorf("%s after %s: the refused enable changed the attached loop", b.name, a.name)
			}
			if got := g.ClassLimits(); !reflect.DeepEqual(got, limits) {
				t.Errorf("%s after %s: partition %v, want %v untouched", b.name, a.name, got, limits)
			}
			if got := g.Stats().Completed; got != completed {
				t.Errorf("%s after %s: window holds %d completions, want %d (no reset)", b.name, a.name, got, completed)
			}
		}
	}
	for _, a := range gateLoops {
		g := newLoopGate(t)
		if err := a.enable(g); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		first := g.loop.Loop()
		if err := a.enable(g); err != nil {
			t.Errorf("re-enabling %s: %v", a.name, err)
		}
		if g.loop.Loop() == first || !a.enabled(g) {
			t.Errorf("re-enabling %s did not replace the loop", a.name)
		}
		a.disable(g)
		if a.enabled(g) {
			t.Errorf("%s still enabled after its disable", a.name)
		}
		for _, b := range gateLoops {
			if err := b.enable(g); err != nil {
				t.Errorf("%s after disabling %s: %v", b.name, a.name, err)
			}
			b.disable(g)
		}
	}
}

// TestDisableFairnessRelaxesStrict: detaching a strict fairness loop
// leaves its partition but drops the hard cap.
func TestDisableFairnessRelaxesStrict(t *testing.T) {
	g := newLoopGate(t)
	if err := gateLoops[2].enable(g); err != nil {
		t.Fatal(err)
	}
	if !g.fe.StrictPartition() {
		t.Fatal("strict fairness installed no strict partition")
	}
	limits := g.ClassLimits()
	g.DisableFairness()
	if g.fe.StrictPartition() {
		t.Error("partition still strict after DisableFairness")
	}
	if got := g.ClassLimits(); !reflect.DeepEqual(got, limits) {
		t.Errorf("partition %v after DisableFairness, want %v kept", got, limits)
	}
}

// TestLoopAcquireReleaseZeroAlloc: with any one loop attached, the
// steady-state Acquire/Release round trip allocates nothing; each loop
// reads the metrics window into a buffer it keeps.
func TestLoopAcquireReleaseZeroAlloc(t *testing.T) {
	for _, lp := range gateLoops {
		g := newLoopGate(t)
		if err := lp.enable(g); err != nil {
			t.Fatalf("%s: %v", lp.name, err)
		}
		ctx := context.Background()
		if n := testing.AllocsPerRun(200, func() {
			tk, err := g.AcquireRequest(ctx, Request{Class: ClassHigh})
			if err != nil {
				t.Fatal(err)
			}
			tk.Release(Result{})
		}); n != 0 {
			t.Errorf("%s: Acquire+Release allocates %v/op, want 0", lp.name, n)
		}
	}
}

// TestStatsClassesFollowWindow: after ResetStats a class that
// completes nothing in the new window and never shed drops out of
// Stats.Classes.
func TestStatsClassesFollowWindow(t *testing.T) {
	g, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	serve(t, g, 4)
	if got := len(g.Stats().Classes); got != 2 {
		t.Fatalf("Stats.Classes has %d entries before the reset, want 2", got)
	}
	g.ResetStats()
	tk, err := g.AcquireRequest(context.Background(), Request{Class: ClassHigh})
	if err != nil {
		t.Fatal(err)
	}
	tk.Release(Result{})
	cl := g.Stats().Classes
	if len(cl) != 1 || cl[0].Class != int(ClassHigh) || cl[0].Completed != 1 {
		t.Errorf("Stats.Classes after the reset = %+v, want only class %d with 1 completion", cl, ClassHigh)
	}
}
