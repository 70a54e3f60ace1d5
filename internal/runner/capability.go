package runner

import (
	"fmt"
	"sort"
)

// Needs is the set of stack shapes a feature requires.
type Needs uint8

const (
	// NeedsUnsharded: the feature acts on the lone frontend of an
	// unsharded stack.
	NeedsUnsharded Needs = 1 << iota
	// NeedsSharded: the feature acts on the shard fleet.
	NeedsSharded
	// NeedsSequential: the feature is refused under parallel_shards
	// (Spec.ParallelShards), on any stack.
	NeedsSequential
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
	FeatureController
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
// set_tenant_deadlines, set_admit_deadline, the disable_* events,
// tenants, admission deadlines and queue policies — runs on every
// shape.
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
		Needs: NeedsUnsharded | NeedsSequential,
		Why:   "the controller partitions the lone frontend and actuates per completion",
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
	FeatureController: {
		Name: "the feedback controller", Keys: []string{"enable_controller"},
		Needs: NeedsSequential,
		Why:   "it actuates per completion, which has no deterministic parallel equivalent",
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
	{"enable_controller", FeatureController, func(ev Event) bool { return ev.EnableController != nil }},
}

// CapabilityError reports a feature requested on a stack shape the
// capability table refuses.
type CapabilityError struct {
	Feature Feature
	// Where names the request: the scenario location and key, or the
	// Config field.
	Where string
	// Shape is the refused shape: "on a sharded system", "on an
	// unsharded system" or "with parallel_shards".
	Shape string
}

func (e *CapabilityError) Error() string {
	c := Capabilities[e.Feature]
	return fmt.Sprintf("runner: %s: %s is not supported %s (%s)", e.Where, c.Name, e.Shape, c.Why)
}

// shape is a stack shape as far as it is known: Validate knows only
// the parallel flag, CheckStack knows the shard count too.
type shape struct {
	known, sharded, parallel bool
}

// refusal returns the refused-shape phrase, or "" when f runs on sh.
func (f Feature) refusal(sh shape) string {
	needs := Capabilities[f].Needs
	switch {
	case needs&NeedsSequential != 0 && sh.parallel:
		return "with parallel_shards"
	case sh.known && needs&NeedsUnsharded != 0 && sh.sharded:
		return "on a sharded system"
	case sh.known && needs&NeedsSharded != 0 && !sh.sharded:
		return "on an unsharded system"
	}
	return ""
}

// Check consults the table for f, requested at where, on a stack of
// shards shards (0 = unsharded), under parallel_shards when parallel.
func (f Feature) Check(where string, shards int, parallel bool) error {
	if r := f.refusal(shape{known: true, sharded: shards > 0, parallel: parallel}); r != "" {
		return &CapabilityError{Feature: f, Where: where, Shape: r}
	}
	return nil
}

// checkShape consults the table for every feature the spec requests,
// in spec order.
func (s Spec) checkShape(sh shape) error {
	refuse := func(f Feature, where func() string) error {
		if r := f.refusal(sh); r != "" {
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
// every feature the spec requests on that shape, and every shard_fail,
// shard_recover and shard_remove must target a shard that exists when
// it fires (the starting fleet plus earlier shard_add events).
func (s Spec) CheckStack(shards int) error {
	if err := s.checkShape(shape{known: true, sharded: shards > 0, parallel: s.ParallelShards}); err != nil {
		return err
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
		}
	}
	return nil
}
