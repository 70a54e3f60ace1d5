// Package fairness implements weighted max-min fair sharing of an MPL
// gate across N tenants — the multi-tenant generalization of the
// two-class SLO partition (internal/controller).
//
// The mechanism is the paper's: the external queue and the MPL
// partition (core.Frontend class limits with work-conserving
// borrowing) already shape contention between classes without touching
// the backend. What this package adds is the policy layer for many
// tenants: a controller that measures each tenant's attained service
// over an observation window, normalizes it by the tenant's weight
// (DRF-style — the "dominant resource" of an MPL gate is its slots),
// and moves slots from the most-overserved tenant toward the
// most-underserved one. Idle tenants donate first: with
// work-conserving borrowing their reserved slots were being lent out
// anyway, so reclaiming them is free.
//
// Two invariants hold after every reaction, pinned by property tests:
// the per-class limits always sum to the gate's MPL, and every tenant
// keeps at least one slot (no tenant can be starved out entirely, so
// an aggressor can never capture the whole gate).
package fairness

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"extsched/internal/core"
)

// Gate is the control surface the fairness loop drives. *core.Frontend
// implements it; the live gate and the scenario runner adapt theirs.
type Gate interface {
	// MPL returns the current total limit.
	MPL() int
	// SetClassLimits partitions the MPL (see core.Frontend).
	SetClassLimits(map[core.Class]int)
	// SetStrictPartition switches the partition between
	// work-conserving and hard-cap (see core.Frontend).
	SetStrictPartition(bool)
	// Metrics returns the current observation window's per-class
	// completion counts.
	Metrics() core.Metrics
	// ResetMetrics opens a fresh observation window.
	ResetMetrics()
}

// Config tunes the fairness controller.
type Config struct {
	// Weights maps each governed tenant class to its relative share
	// weight. Required: at least 2 entries, every weight > 0. Classes
	// absent from the map are not governed (the gate's global MPL still
	// applies to them).
	Weights map[core.Class]float64
	// MinObservations gates window close: a reaction needs this many
	// completions so it never steers on noise. Default 50.
	MinObservations int
	// Hysteresis is the imbalance ratio required before a slot moves
	// from a busy donor: donorScore > Hysteresis × receiverScore
	// (scores are weight-normalized completion counts). Idle donors
	// bypass it. Default 1.2; must be >= 1.
	Hysteresis float64
	// Strict makes the partition a hard cap: a tenant at its limit
	// never borrows idle capacity. Default false (work-conserving
	// borrowing): slots a tenant is not using are lent out per
	// dispatch, which maximizes utilization but lets an overloaded
	// tenant keep the backend saturated — under strict the controller
	// is the only path by which unused slots change hands, so the
	// other tenants' in-DBMS times hold near their uncontended levels.
	Strict bool
}

// Validate checks the config's fields: at least two weighted classes,
// every weight positive and finite, Hysteresis 0 (default) or >= 1,
// MinObservations >= 0 (0 = default).
func (c Config) Validate() error {
	if len(c.Weights) < 2 {
		return fmt.Errorf("fairness: need >= 2 weighted classes, got %d", len(c.Weights))
	}
	for cl, w := range c.Weights {
		if !(w > 0) || math.IsInf(w, 0) {
			return fmt.Errorf("fairness: class %d weight %v must be > 0", cl, w)
		}
	}
	if !(c.Hysteresis == 0 || c.Hysteresis >= 1) || math.IsInf(c.Hysteresis, 0) {
		return fmt.Errorf("fairness: hysteresis %v must be >= 1 (0 = default)", c.Hysteresis)
	}
	if c.MinObservations < 0 {
		return fmt.Errorf("fairness: MinObservations %d must be >= 0 (0 = default)", c.MinObservations)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.MinObservations <= 0 {
		c.MinObservations = 50
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 1.2
	}
	return c
}

// Allocate splits mpl slots across the weighted classes: every class
// gets at least one slot, the remainder is spread proportionally to
// the weights by largest remainder, and the result always sums to
// exactly mpl. Ties break toward the lower class ID, so the split is
// deterministic. Panics when mpl < len(weights) (a floor of one slot
// each is then impossible) or a weight is <= 0.
func Allocate(mpl int, weights map[core.Class]float64) map[core.Class]int {
	n := len(weights)
	if n == 0 {
		return nil
	}
	if mpl < n {
		panic(fmt.Sprintf("fairness: MPL %d cannot floor %d classes at 1 slot each", mpl, n))
	}
	classes := make([]core.Class, 0, n)
	sumW := 0.0
	for c, w := range weights {
		if w <= 0 {
			panic(fmt.Sprintf("fairness: class %d weight %v must be > 0", c, w))
		}
		classes = append(classes, c)
		sumW += w
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })

	out := make(map[core.Class]int, n)
	spare := mpl - n
	type frac struct {
		c core.Class
		f float64
	}
	fracs := make([]frac, 0, n)
	assigned := 0
	for _, c := range classes {
		ideal := float64(spare) * weights[c] / sumW
		base := int(ideal)
		out[c] = 1 + base
		assigned += base
		fracs = append(fracs, frac{c, ideal - float64(base)})
	}
	// Largest remainder for the slots integer truncation left over;
	// ties toward the lower class ID (fracs is already class-ascending,
	// and the sort is stable).
	sort.SliceStable(fracs, func(i, j int) bool { return fracs[i].f > fracs[j].f })
	for i := 0; i < spare-assigned; i++ {
		out[fracs[i].c]++
	}
	return out
}

// Decision records one completed fairness reaction.
type Decision struct {
	Iteration int
	// Donor and Receiver are the classes a slot moved between; Moved
	// is false for a hold (no imbalance beyond hysteresis) and the
	// classes are then zero.
	Donor, Receiver core.Class
	Moved           bool
	// DonorIdle reports whether the donor had zero completions (its
	// reserved slots were idle, so the move bypassed hysteresis).
	DonorIdle bool
	// Limits is the partition AFTER the reaction.
	Limits map[core.Class]int
}

// Controller is the weighted max-min fairness loop. Wire it like the
// other controllers in this repository: call Observe once per
// completed item, from any goroutine.
type Controller struct {
	mu      sync.Mutex
	gate    Gate
	cfg     Config
	classes []core.Class // governed classes, ascending
	limits  map[core.Class]int
	history []Decision
}

// New builds a fairness controller over g and installs the initial
// weighted partition (Allocate of the gate's current MPL). The gate
// must have a finite MPL of at least one slot per governed class.
func New(g Gate, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	total := g.MPL()
	if total < len(cfg.Weights) {
		return nil, fmt.Errorf("fairness: MPL %d below one slot per class (%d classes)", total, len(cfg.Weights))
	}
	// Defensive copy: the caller may mutate its map after New.
	weights := make(map[core.Class]float64, len(cfg.Weights))
	classes := make([]core.Class, 0, len(cfg.Weights))
	for c, w := range cfg.Weights {
		weights[c] = w
		classes = append(classes, c)
	}
	cfg.Weights = weights
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	ctl := &Controller{gate: g, cfg: cfg, classes: classes}
	ctl.limits = Allocate(total, cfg.Weights)
	ctl.apply()
	g.SetStrictPartition(cfg.Strict)
	g.ResetMetrics()
	return ctl, nil
}

// apply pushes a copy of the current partition to the gate (a copy so
// the gate cannot alias the controller's authoritative map). Called
// with c.mu held.
func (c *Controller) apply() {
	out := make(map[core.Class]int, len(c.limits))
	for cl, l := range c.limits {
		out[cl] = l
	}
	c.gate.SetClassLimits(out)
}

// Limits returns a copy of the current partition.
func (c *Controller) Limits() map[core.Class]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[core.Class]int, len(c.limits))
	for cl, l := range c.limits {
		out[cl] = l
	}
	return out
}

// Iterations returns the number of completed reactions.
func (c *Controller) Iterations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.history)
}

// Moves returns how many reactions actually moved a slot.
func (c *Controller) Moves() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, d := range c.history {
		if d.Moved {
			n++
		}
	}
	return n
}

// History returns the reaction log.
func (c *Controller) History() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.history
}

// Observe consumes one completion event: when the observation window
// has seen enough traffic it scores every governed tenant —
// weight-normalized attained completions — and moves one slot from the
// most-overserved donor to the most-underserved receiver, then opens a
// fresh window. Idle tenants (zero completions with more than the
// floor slot) donate first and without hysteresis; busy tenants donate
// only past the hysteresis ratio, so a balanced system holds steady.
// One slot per window keeps reactions smooth; persistent imbalance
// compounds across windows until max-min fairness is reached.
func (c *Controller) Observe() {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.gate.Metrics()
	if int(m.Completed) < c.cfg.MinObservations {
		return
	}
	// An MPL change since the last reaction invalidates the partition
	// sum: re-spread the weights over the new total and start over.
	total := c.gate.MPL()
	sum := 0
	for _, l := range c.limits {
		sum += l
	}
	if sum != total {
		if total < len(c.classes) {
			// The new MPL cannot floor every class; hold until it can.
			return
		}
		c.limits = Allocate(total, c.cfg.Weights)
		c.apply()
		c.history = append(c.history, Decision{Iteration: len(c.history) + 1, Limits: c.snapshotLimits()})
		c.gate.ResetMetrics()
		return
	}

	// Score each governed tenant: attained completions per unit weight.
	// The receiver is the busy tenant with the lowest score; the donor
	// is an idle tenant above the floor if any (its reservation was
	// being lent out anyway — reclaiming is free), else the busy tenant
	// with the highest score above the floor.
	var (
		donor, receiver    core.Class
		haveIdle, haveBusy bool
		haveRecv           bool
		maxScore           float64
		minScore           float64
	)
	for _, cl := range c.classes {
		n := m.ClassMetric(cl).Completed()
		score := float64(n) / c.cfg.Weights[cl]
		if n == 0 {
			if !haveIdle && c.limits[cl] > 1 {
				donor, haveIdle = cl, true
			}
			continue
		}
		if !haveRecv || score < minScore {
			receiver, minScore, haveRecv = cl, score, true
		}
		if c.limits[cl] > 1 && (!haveBusy || score > maxScore) {
			if !haveIdle {
				donor = cl
			}
			maxScore, haveBusy = score, true
		}
	}
	d := Decision{Iteration: len(c.history) + 1}
	haveDonor := haveIdle || haveBusy
	if haveRecv && haveDonor && donor != receiver &&
		(haveIdle || maxScore > c.cfg.Hysteresis*minScore) {
		c.limits[donor]--
		c.limits[receiver]++
		c.apply()
		d.Donor, d.Receiver, d.Moved, d.DonorIdle = donor, receiver, true, haveIdle
	}
	d.Limits = c.snapshotLimits()
	c.history = append(c.history, d)
	c.gate.ResetMetrics()
}

// snapshotLimits copies the partition for a Decision record. Called
// with c.mu held.
func (c *Controller) snapshotLimits() map[core.Class]int {
	out := make(map[core.Class]int, len(c.limits))
	for cl, l := range c.limits {
		out[cl] = l
	}
	return out
}
