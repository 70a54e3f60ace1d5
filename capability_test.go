package extsched

import (
	"context"
	"errors"
	"testing"

	"extsched/internal/runner"
	"extsched/metrics"
)

// capabilityRequests builds, per capability-table row, a scenario that
// requests the feature at t=200 of a 300 s phase sampled every 10 s.
// A combination refused only when its event fires would stream 20
// snapshots first; one refused up front streams none.
func capabilityRequests() map[runner.Feature]func(*Scenario) {
	event := func(ev Event) func(*Scenario) {
		return func(sc *Scenario) {
			ev.At = 200
			sc.Phases[0].Events = append(sc.Phases[0].Events, ev)
		}
	}
	shard := 0
	return map[runner.Feature]func(*Scenario){
		runner.FeatureSLO:        event(Event{SetSLO: &SLOSpec{Target: 0.5}}),
		runner.FeaturePartition:  event(Event{SetClassLimits: &ClassLimits{High: 2, Low: 2}}),
		runner.FeatureFairness:   event(Event{EnableFairness: &FairnessSpec{Weights: map[string]float64{"high": 2, "low": 1}}}),
		runner.FeatureShardSpeed: event(Event{SetShardSpeed: &ShardSpeedEvent{Shard: 0, Speed: 0.5}}),
		runner.FeatureDispatch:   event(Event{SetDispatch: "jsq"}),
		runner.FeatureLifecycle:  event(Event{ShardFail: &shard}),
		runner.FeatureChurn:      func(sc *Scenario) { sc.Phases[0].Churn = &ChurnSpec{MTBF: 50, MTTR: 5} },
		runner.FeatureAutoscale:  func(sc *Scenario) { sc.Autoscale = &AutoscaleSpec{Min: 1, Max: 2} },
	}
}

// TestCapabilityTableRefusesUpFront: every capability-table row, on an
// unsharded and a sharded system. Each combination the table refuses
// fails in System.Run before any simulated time passes (no observer
// snapshot although the request sits at t=200), with the row's
// CapabilityError, and runner.Run on the equivalent stack returns the
// identical error.
func TestCapabilityTableRefusesUpFront(t *testing.T) {
	requests := capabilityRequests()
	configs := []struct {
		name string
		cfg  Config
	}{
		{"unsharded", Config{SetupID: 1, MPL: 4, Seed: 1}},
		{"sharded", Config{SetupID: 1, MPL: 8, Seed: 1, Shards: ShardSpec{Count: 2}}},
	}
	for f, row := range runner.Capabilities {
		feature := runner.Feature(f)
		request, ok := requests[feature]
		if !ok {
			t.Errorf("capability row %q has no test case", row.Name)
			continue
		}
		for _, c := range configs {
			sharded := c.cfg.Shards.Count > 0
			sc := Scenario{SampleInterval: 10, Phases: []Phase{{Kind: PhaseOpen, Lambda: 20, Duration: 300}}}
			request(&sc)
			refused := (row.Needs&runner.NeedsUnsharded != 0 && sharded) ||
				(row.Needs&runner.NeedsSharded != 0 && !sharded)
			name := row.Name + " on " + c.name
			if !refused {
				if err := sc.CheckStack(c.cfg.Shards.Count); err != nil {
					t.Errorf("%s: supported combination refused: %v", name, err)
				}
				continue
			}
			sys, err := NewSystem(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			snaps := 0
			count := metrics.ObserverFunc(func(metrics.Snapshot) { snaps++ })
			_, sysErr := sys.Run(context.Background(), sc, count)
			var ce *runner.CapabilityError
			if !errors.As(sysErr, &ce) || ce.Feature != feature {
				t.Errorf("%s: System.Run err = %v, want the row's CapabilityError", name, sysErr)
				continue
			}
			if snaps != 0 {
				t.Errorf("%s: %d snapshots streamed before the refusal", name, snaps)
			}
			st, err := sys.buildStack(c.cfg.MPL)
			if err != nil {
				t.Fatal(err)
			}
			_, rerr := runner.Run(context.Background(), st, sc, count)
			if rerr == nil || rerr.Error() != sysErr.Error() {
				t.Errorf("%s: runner.Run err = %v, want %q", name, rerr, sysErr)
			}
			if now := st.Eng.Now(); now != 0 || snaps != 0 {
				t.Errorf("%s: runner.Run advanced to t=%v with %d snapshots before refusing", name, now, snaps)
			}
		}
	}
}
