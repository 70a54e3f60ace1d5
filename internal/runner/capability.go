package runner

import (
	"fmt"
	"sort"

	"extsched/internal/controller"
)

// Needs is the set of stack shapes a feature requires.
type Needs uint8

const (
	// NeedsUnsharded: the feature acts on the lone frontend of an
	// unsharded stack.
	NeedsUnsharded Needs = 1 << iota
	// NeedsSharded: the feature acts on the shard fleet.
	NeedsSharded
)

// Feature names one row of the capability table.
type Feature int

const (
	FeatureSLO Feature = iota
	FeaturePartition
	FeatureFairness
	FeatureShardSpeed
	FeatureDispatch
	FeatureLifecycle
	FeatureChurn
	FeatureAutoscale
	numFeatures
)

// Capability is one row of the capability table.
type Capability struct {
	// Name is the feature's display name.
	Name string
	// Keys are the scenario JSON keys and Config fields that request
	// the feature.
	Keys []string
	// Needs are the stack shapes the feature runs on.
	Needs Needs
	// Why explains the restriction.
	Why string
}

// Capabilities is the capability table: the one place that decides
// which features run on which stack shapes. Config.Validate, System.Run
// (before it builds a stack) and Run (before the first event) all
// consult it, so an unsupported combination fails before any simulated
// time passes, with the same error from every layer. Everything absent
// from the table — every phase kind, set_mpl, set_weights,
// set_tenant_deadlines, set_admit_deadline, enable_controller, the
// disable_* events, tenants, admission deadlines and queue policies —
// runs on every shape.
var Capabilities = [numFeatures]Capability{
	FeatureSLO: {
		Name: "SLO control", Keys: []string{"set_slo", "Config.SLO"},
		Needs: NeedsUnsharded,
		Why:   "the class partition and its percentile signal live on the lone frontend",
	},
	FeaturePartition: {
		Name: "a class partition", Keys: []string{"set_class_limits", "set_tenant_limits", "Config.ClassLimits"},
		Needs: NeedsUnsharded,
		Why:   "the partition lives on the lone frontend",
	},
	FeatureFairness: {
		Name: "fairness control", Keys: []string{"fairness", "enable_fairness"},
		Needs: NeedsUnsharded,
		Why:   "the controller partitions the lone frontend",
	},
	FeatureShardSpeed: {
		Name: "a shard speed change", Keys: []string{"set_shard_speed"},
		Needs: NeedsSharded,
		Why:   "it retargets one shard of the fleet",
	},
	FeatureDispatch: {
		Name: "a dispatch policy switch", Keys: []string{"set_dispatch"},
		Needs: NeedsSharded,
		Why:   "it retargets the fleet's dispatcher",
	},
	FeatureLifecycle: {
		Name: "a shard lifecycle event", Keys: []string{"shard_fail", "shard_recover", "shard_remove", "shard_add"},
		Needs: NeedsSharded,
		Why:   "it fails, recovers, drains or adds a shard of the fleet",
	},
	FeatureChurn: {
		Name: "churn", Keys: []string{"churn"},
		Needs: NeedsSharded,
		Why:   "the generator fails and recovers shards of the fleet",
	},
	FeatureAutoscale: {
		Name: "autoscale", Keys: []string{"autoscale"},
		Needs: NeedsSharded,
		Why:   "the autoscaler grows and drains the fleet",
	},
}

// eventFeatures maps each capability-gated event key to its table row.
var eventFeatures = [...]struct {
	key     string
	feature Feature
	set     func(Event) bool
}{
	{"set_slo", FeatureSLO, func(ev Event) bool { return ev.SetSLO != nil }},
	{"set_class_limits", FeaturePartition, func(ev Event) bool { return ev.SetClassLimits != nil }},
	{"set_tenant_limits", FeaturePartition, func(ev Event) bool { return ev.SetTenantLimits != nil }},
	{"enable_fairness", FeatureFairness, func(ev Event) bool { return ev.EnableFairness != nil }},
	{"set_shard_speed", FeatureShardSpeed, func(ev Event) bool { return ev.SetShardSpeed != nil }},
	{"set_dispatch", FeatureDispatch, func(ev Event) bool { return ev.SetDispatch != "" }},
	{"shard_fail", FeatureLifecycle, func(ev Event) bool { return ev.ShardFail != nil }},
	{"shard_recover", FeatureLifecycle, func(ev Event) bool { return ev.ShardRecover != nil }},
	{"shard_remove", FeatureLifecycle, func(ev Event) bool { return ev.ShardRemove != nil }},
	{"shard_add", FeatureLifecycle, func(ev Event) bool { return ev.ShardAdd }},
}

// CapabilityError reports a feature requested on a stack shape the
// capability table refuses.
type CapabilityError struct {
	Feature Feature
	// Where names the request: the scenario location and key, or the
	// Config field.
	Where string
	// Shape is the refused shape: "on a sharded system" or "on an
	// unsharded system".
	Shape string
}

func (e *CapabilityError) Error() string {
	c := Capabilities[e.Feature]
	return fmt.Sprintf("runner: %s: %s is not supported %s (%s)", e.Where, c.Name, e.Shape, c.Why)
}

// refusal returns the refused-shape phrase, or "" when f runs on a
// stack that is sharded or not.
func (f Feature) refusal(sharded bool) string {
	needs := Capabilities[f].Needs
	switch {
	case needs&NeedsUnsharded != 0 && sharded:
		return "on a sharded system"
	case needs&NeedsSharded != 0 && !sharded:
		return "on an unsharded system"
	}
	return ""
}

// Check consults the table for f, requested at where, on a stack of
// shards shards (0 = unsharded).
func (f Feature) Check(where string, shards int) error {
	if r := f.refusal(shards > 0); r != "" {
		return &CapabilityError{Feature: f, Where: where, Shape: r}
	}
	return nil
}

// checkShape consults the table for every feature the spec requests,
// in spec order.
func (s Spec) checkShape(sharded bool) error {
	refuse := func(f Feature, where func() string) error {
		if r := f.refusal(sharded); r != "" {
			return &CapabilityError{Feature: f, Where: where(), Shape: r}
		}
		return nil
	}
	if s.Fairness != nil {
		if err := refuse(FeatureFairness, func() string { return "fairness" }); err != nil {
			return err
		}
	}
	if s.Autoscale != nil {
		if err := refuse(FeatureAutoscale, func() string { return "autoscale" }); err != nil {
			return err
		}
	}
	for i, ph := range s.Phases {
		if ph.Churn != nil {
			if err := refuse(FeatureChurn, func() string { return fmt.Sprintf("phase %d (%s): churn", i, ph.label()) }); err != nil {
				return err
			}
		}
		for j, ev := range ph.Events {
			for _, ef := range eventFeatures {
				if !ef.set(ev) {
					continue
				}
				if err := refuse(ef.feature, func() string {
					return fmt.Sprintf("phase %d (%s) event %d: %s", i, ph.label(), j, ef.key)
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// CheckStack vets the spec against a stack of shards shards (0 =
// unsharded) before anything runs: the capability table must allow
// every feature the spec requests on that shape; every shard_fail,
// shard_recover and shard_remove must target a shard that exists when
// it fires (the starting fleet plus earlier shard_add events); and no
// control loop may attach while a loop of another kind holds the
// metrics window. The loops replay through the slot rule the run
// applies, in the run's order: the fairness block at window open, then
// each event's disables before its enables.
func (s Spec) CheckStack(shards int) error {
	if err := s.checkShape(shards > 0); err != nil {
		return err
	}
	var loops controller.Slot
	if s.Fairness != nil {
		_ = loops.Attach(loopFairness, stubLoop) // an empty slot refuses nothing
	}
	n := shards
	for i, ph := range s.Phases {
		// Walk the events in firing order, growing the known fleet at
		// each shard_add.
		order := make([]int, len(ph.Events))
		for j := range order {
			order[j] = j
		}
		sort.SliceStable(order, func(a, b int) bool { return ph.Events[order[a]].At < ph.Events[order[b]].At })
		for _, j := range order {
			ev := ph.Events[j]
			if ev.ShardAdd {
				n++
			}
			for _, tgt := range ev.shardTargets() {
				if tgt.idx != nil && *tgt.idx >= n {
					return fmt.Errorf("runner: phase %d (%s) event %d: %s targets unknown shard %d (fleet has %d)",
						i, ph.label(), j, tgt.key, *tgt.idx, n)
				}
			}
			// applyEvent's order: the disables, then the enables.
			kinds := [...]string{loopSLO, loopFairness, loopController}
			for k, off := range [...]bool{ev.DisableSLO, ev.DisableFairness, ev.DisableController} {
				if off {
					loops.Detach(kinds[k])
				}
			}
			for k, on := range [...]bool{ev.SetSLO != nil, ev.EnableFairness != nil, ev.EnableController != nil} {
				if !on {
					continue
				}
				if err := loops.Attach(kinds[k], stubLoop); err != nil {
					return fmt.Errorf("runner: phase %d (%s) event %d: %w", i, ph.label(), j, err)
				}
			}
		}
	}
	return nil
}

// stubLoop stands in for a loop in CheckStack's replay, which tracks
// kinds only.
func stubLoop() (controller.Loop, error) { return nil, nil }
