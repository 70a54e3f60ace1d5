// SLO control: from throughput convergence to per-class latency
// targets.
//
// The paper's Section 4.3 loop tunes ONE number — the MPL — to keep
// aggregate throughput near the no-MPL optimum. Its Section 5
// prioritization experiments show that the external queue can
// differentiate transaction classes without touching the DBMS. The SLO
// controller here combines the two: given a fixed MPL, it partitions
// the slots across priority classes (core.Frontend class limits, with
// work-conserving borrowing) and steers the partition from the
// measured tail latency of the SLO class — growing that class's share
// while its percentile target is violated, handing slots back to the
// other classes once the target is met with margin, so their
// throughput is sacrificed only while the SLO needs it. Overload is
// not the partition's job: admission deadlines on the non-SLO classes
// (core.Frontend.SetAdmitDeadline) shed work that could not start in
// time, which is what keeps the queue — and therefore the SLO class's
// tail — bounded when the offered load exceeds capacity.
package controller

import (
	"fmt"
	"sync"

	"extsched/internal/core"
	"extsched/internal/sim"
	"extsched/internal/stats"
)

// ClassGate is the control surface the SLO loop drives: a Gate that
// can additionally partition its MPL across classes and report
// per-class response-time percentiles. *core.Frontend implements it
// (percentile sampling must be enabled).
type ClassGate interface {
	Gate
	// SetClassLimits partitions the MPL (see core.Frontend).
	SetClassLimits(map[core.Class]int)
	// ClassLimits returns the current partition (nil = none).
	ClassLimits() map[core.Class]int
	// ClassResponseTimePercentile reports the class's p-th response-time
	// percentile over the current metrics window.
	ClassResponseTimePercentile(core.Class, float64) float64
}

// SLOTarget is one class's latency objective: the Percentile-th
// response-time percentile must stay at or below Target seconds.
type SLOTarget struct {
	// Class is the protected class (usually core.ClassHigh).
	Class core.Class
	// Percentile is the controlled percentile (e.g. 95); default 95.
	Percentile float64
	// Target is the latency bound in seconds. Required, > 0.
	Target float64
}

// SLOConfig tunes the SLO loop.
type SLOConfig struct {
	Target SLOTarget
	// OtherClass is the class the SLO class borrows slots from; left
	// zero (or equal to the target class) it defaults to the
	// complement — low for a high target, high for a low one. The
	// partition always covers exactly these two classes (the
	// repository's workloads are two-class).
	OtherClass core.Class
	// MinObservations gates window close: the window needs this many
	// completions overall AND a tenth of it (at least 5) from the SLO
	// class, so a reaction never steers on an unmeasured tail. Default
	// 50.
	MinObservations int
	// Margin is the give-back hysteresis: a slot moves back to the
	// other class only while the measured percentile is below
	// Margin×Target (default 0.5), so the partition does not oscillate
	// at the boundary.
	Margin float64
	// GiveBackHold is how many CONSECUTIVE below-margin windows it
	// takes to hand one slot back (default 4). Taking is per-window,
	// giving back is deliberately slower: with work-conserving
	// borrowing an oversized SLO share costs the other class almost
	// nothing while the SLO class is idle (the idle slots are lent
	// out), whereas an undersized share at the next burst costs the SLO
	// class its tail. Asymmetric pacing keeps the share from decaying
	// between burst episodes.
	GiveBackHold int
	// MinClassLimit floors each class's share; default 1.
	MinClassLimit int
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Target.Percentile == 0 {
		c.Target.Percentile = 95
	}
	if c.OtherClass == c.Target.Class {
		c.OtherClass = core.ClassLow
		if c.Target.Class == core.ClassLow {
			c.OtherClass = core.ClassHigh
		}
	}
	if c.MinObservations <= 0 {
		c.MinObservations = 50
	}
	if c.Margin == 0 {
		c.Margin = 0.5
	}
	if c.GiveBackHold <= 0 {
		c.GiveBackHold = 4
	}
	if c.MinClassLimit <= 0 {
		c.MinClassLimit = 1
	}
	return c
}

// SLODecision records one completed SLO reaction.
type SLODecision struct {
	Iteration int
	// Measured is the SLO class's percentile over the closed window.
	Measured float64
	// SLOLimit / OtherLimit are the partition AFTER the reaction.
	SLOLimit, OtherLimit int
	Action               Action
}

// SLOController partitions a gate's MPL across classes to hold a
// latency SLO. Like the throughput controller it is wired by the
// caller: invoke Observe once per completion, from any goroutine. It
// never "converges" — an SLO is held continuously, not found once —
// so it keeps reacting for as long as it is attached.
type SLOController struct {
	mu    sync.Mutex
	clock sim.Clock
	gate  ClassGate
	cfg   SLOConfig
	// sloShare is the SLO class's current slot share; the other class
	// holds the remainder of the gate's MPL.
	sloShare int
	// belowCount counts consecutive below-margin windows (the give-back
	// pacing state).
	belowCount int
	history    *stats.Ring[SLODecision]
}

// NewSLO builds an SLO controller over g and installs the initial
// partition: an even split of the gate's current MPL (SLO class
// rounded up), each class floored at MinClassLimit. The gate must have
// a finite MPL of at least 2× MinClassLimit — a partition needs at
// least one slot per class — and percentile sampling enabled (the loop
// steers on ClassResponseTimePercentile). Changing the gate's MPL
// while the loop runs is fine: the partition re-spreads over the new
// total at the next reaction.
func NewSLO(clock sim.Clock, g ClassGate, cfg SLOConfig) (*SLOController, error) {
	cfg = cfg.withDefaults()
	if cfg.Target.Target <= 0 {
		return nil, fmt.Errorf("controller: SLO target %v must be positive seconds", cfg.Target.Target)
	}
	if cfg.Target.Percentile <= 0 || cfg.Target.Percentile >= 100 {
		return nil, fmt.Errorf("controller: SLO percentile %v outside (0,100)", cfg.Target.Percentile)
	}
	if cfg.Margin < 0 || cfg.Margin >= 1 {
		return nil, fmt.Errorf("controller: SLO margin %v outside [0,1)", cfg.Margin)
	}
	total := g.MPL()
	if total < 2*cfg.MinClassLimit {
		return nil, fmt.Errorf("controller: SLO partition needs MPL >= %d, gate has %d", 2*cfg.MinClassLimit, total)
	}
	c := &SLOController{clock: clock, gate: g, cfg: cfg, sloShare: (total + 1) / 2,
		history: stats.NewRing[SLODecision](historyLen)}
	c.clampShare(total)
	c.apply(total)
	g.ResetMetrics()
	return c, nil
}

// clampShare keeps the SLO share inside [MinClassLimit, total-MinClassLimit].
func (c *SLOController) clampShare(total int) {
	if c.sloShare < c.cfg.MinClassLimit {
		c.sloShare = c.cfg.MinClassLimit
	}
	if max := total - c.cfg.MinClassLimit; c.sloShare > max {
		c.sloShare = max
	}
}

// apply pushes the current partition to the gate. The two limits
// always sum to the gate's MPL and each stays >= MinClassLimit — the
// partition invariant the property tests pin.
func (c *SLOController) apply(total int) {
	c.gate.SetClassLimits(map[core.Class]int{
		c.cfg.Target.Class: c.sloShare,
		c.cfg.OtherClass:   total - c.sloShare,
	})
}

// Iterations returns the number of completed reactions.
func (c *SLOController) Iterations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.history.Total()
}

// History returns the most recent reactions (up to historyLen), oldest
// first.
func (c *SLOController) History() []SLODecision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.history.Slice()
}

// Last returns the most recent reaction; ok is false before the first.
func (c *SLOController) Last() (d SLODecision, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.history.Last()
}

// Limits returns the current (sloClass, otherClass) slot partition,
// clamped against the gate's CURRENT MPL: an external limit change
// between reactions (SetLimit, a composed MPL loop) shrinks the
// reported share rather than producing a negative other side; the
// next closed window re-spreads the stored share the same way.
func (c *SLOController) Limits() (slo, other int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.gate.MPL()
	slo = c.sloShare
	if max := total - c.cfg.MinClassLimit; slo > max {
		slo = max
	}
	if slo < 0 {
		slo = 0
	}
	return slo, total - slo
}

// Observe consumes one completion event: when the observation window
// has seen enough traffic — overall and from the SLO class — it reads
// the class percentile, moves one slot toward whichever side the
// measurement demands, and opens a fresh window. Call it once per
// completed item, from any goroutine.
func (c *SLOController) Observe() {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.gate.Metrics()
	if int(m.Completed) < c.cfg.MinObservations {
		return
	}
	sloSeen := m.ClassMetric(c.cfg.Target.Class).Completed()
	minSLO := c.cfg.MinObservations / 10
	if minSLO < 5 {
		minSLO = 5
	}
	if int(sloSeen) < minSLO {
		return
	}
	measured := c.gate.ClassResponseTimePercentile(c.cfg.Target.Class, c.cfg.Target.Percentile)
	total := c.gate.MPL()
	action := Hold
	if total >= 2*c.cfg.MinClassLimit {
		prev := c.sloShare
		switch {
		case measured > c.cfg.Target.Target:
			c.sloShare++
			c.belowCount = 0
		case measured < c.cfg.Margin*c.cfg.Target.Target:
			c.belowCount++
			if c.belowCount >= c.cfg.GiveBackHold {
				c.sloShare--
				c.belowCount = 0
			}
		default:
			c.belowCount = 0
		}
		c.clampShare(total)
		switch {
		case c.sloShare > prev:
			action = Increase
		case c.sloShare < prev:
			action = Decrease
		}
		// Re-apply even on Hold: an MPL change since the last reaction
		// must be re-spread across the classes.
		c.apply(total)
	}
	c.history.Add(SLODecision{
		Iteration:  c.history.Total() + 1,
		Measured:   measured,
		SLOLimit:   c.sloShare,
		OtherLimit: total - c.sloShare,
		Action:     action,
	})
	c.gate.ResetMetrics()
}
