package experiments

import (
	"fmt"

	"extsched/internal/core"
	"extsched/internal/fairness"
	"extsched/internal/lockmgr"
	"extsched/internal/runner"
	"extsched/internal/workload"
)

// fairnessOutcome is one configuration's run of the fairness figure.
type fairnessOutcome struct {
	out    runner.Outcome
	series Series
}

// victimP95s pulls the victim tenants' p95s out of a whole-run report
// (classes 0..victims-1; a victim that completed nothing reports 0).
func victimP95s(out runner.Outcome, victims int) []float64 {
	p := make([]float64, victims)
	for _, c := range out.Total.Classes {
		if int(c.Class) >= 1 && int(c.Class) <= victims {
			p[c.Class-1] = c.P95
		}
	}
	return p
}

// FairnessFigure is the multi-tenant isolation headline: three equal
// "victim" tenants run at a comfortable aggregate load, then an
// aggressor tenant joins at ten times a victim's arrival rate, pushing
// the offered load far past capacity. Two contended runs face off — the
// plain shared gate (fairness off: one FIFO queue, one global MPL) and
// the same gate under the weighted max-min fairness controller
// (fairness on: the MPL partitioned per tenant, at most one slot moved
// per observation window, every tenant floored at one slot).
//
// The fairness-on run uses the controller's strict mode: limits are
// hard caps, not work-conserving hints. Per-dispatch borrowing would
// hand every slot the victims leave idle to the aggressor's backlog,
// keeping the backend saturated and inflating the victims' in-DBMS
// times — with a hard cap the aggressor holds exactly its floor slot,
// and unused capacity changes hands only through the controller.
// Victims carry weight 8 to the aggressor's 1, so the initial
// weighted partition already pins the aggressor at the one-slot floor.
//
// The point the figure makes: with the shared gate the aggressor's
// backlog lands on everyone — the victims' p95s grow without bound
// with the queue — while the strict fairness partition caps the
// aggressor at its floor, so every victim's p95 stays within 2x of
// its no-aggressor baseline. The per-victim p95s of all three
// configurations are the series; the isolation verdict, the final
// tenant partition, and the aggressor's attained throughput land in
// the notes.
func FairnessFigure(setupID int, opts RunOpts) (*Figure, error) {
	return fairnessFigure(setupID, 16, 0.15, 8, 10, opts)
}

// fairnessFigure is FairnessFigure with the experiment's shape
// exposed: the fixed gate limit, each victim's arrival rate as a
// fraction of the reference capacity, the victims' fairness weight
// (the aggressor's is 1), and the aggressor's arrival rate in victim
// rates.
func fairnessFigure(setupID, mpl int, pvFrac, victimWeight float64, aggFactor int, opts RunOpts) (*Figure, error) {
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults(setup)
	if opts.PercentileSamples <= 0 {
		opts.PercentileSamples = 4000
	}
	// Reference capacity from a no-MPL closed probe (the same probe
	// every controller figure uses).
	base, err := RunClosed(setup, 0, nil, workload.DBOptions{}, opts)
	if err != nil {
		return nil, err
	}
	ref := base.Throughput()
	if ref <= 0 {
		return nil, fmt.Errorf("experiments: degenerate baseline throughput")
	}

	const victims = 3
	perVictim := pvFrac * ref // each victim's absolute arrival rate
	// The aggressor takes class 0: deferred-dispatch scans prefer
	// higher class IDs, so a borrowed slot never goes to deferred
	// aggressor work while a victim waits.
	names := map[core.Class]string{0: "aggressor", 1: "victim-a", 2: "victim-b", 3: "victim-c"}

	// Victim absolute rates are identical across configurations; only
	// the aggressor's share is added on top, so the baseline is the
	// correct no-aggressor reference for each victim.
	victimMix := make([]workload.TenantMix, victims)
	for i := range victimMix {
		victimMix[i] = workload.TenantMix{Class: lockmgr.Class(i + 1), Share: 1.0 / victims}
	}
	aggMix := make([]workload.TenantMix, victims+1)
	total := float64(victims + aggFactor)
	for i := 0; i < victims; i++ {
		aggMix[i] = workload.TenantMix{Class: lockmgr.Class(i + 1), Share: 1 / total}
	}
	aggMix[victims] = workload.TenantMix{Class: 0, Share: float64(aggFactor) / total}

	type config struct {
		label    string
		mix      []workload.TenantMix
		lambda   float64
		fairness bool
	}
	configs := []config{
		{"baseline", victimMix, float64(victims) * perVictim, false},
		{"aggressor fairness-off", aggMix, total * perVictim, false},
		{"aggressor fairness-on", aggMix, total * perVictim, true},
	}

	runOne := func(c config) (fairnessOutcome, error) {
		eng, db, fe, gen, err := buildStack(setup, mpl, nil, workload.DBOptions{}, opts)
		if err != nil {
			return fairnessOutcome{}, err
		}
		weights := make(map[core.Class]float64, len(c.mix))
		for _, m := range c.mix {
			cl := core.Class(m.Class)
			w := victimWeight
			if cl == 0 {
				w = 1
			}
			fe.RegisterClass(names[cl], w, 0)
			weights[cl] = w
		}
		if err := gen.SetMix(c.mix); err != nil {
			return fairnessOutcome{}, err
		}
		st := runner.Stack{
			Eng: eng, DB: db, FE: fe, Gen: gen, Seed: opts.Seed,
			PercentileSamples: opts.PercentileSamples,
			ClassNames:        names,
		}
		if c.fairness {
			// The runner attaches the controller at measure start; warm
			// up under the same initial weighted partition it will
			// install (Allocate is deterministic), so the measure window
			// never drains an unpartitioned warmup backlog.
			fe.SetClassLimits(fairness.Allocate(mpl, weights))
			fe.SetStrictPartition(true)
			st.Fairness = &fairness.Config{Weights: weights, Strict: true, MinObservations: 100, Hysteresis: 2}
		}
		spec := runner.Spec{
			Warmup: opts.Warmup,
			Phases: []runner.Phase{{
				Name: "contended", Kind: runner.KindOpen,
				Lambda: c.lambda, Duration: opts.Measure,
			}},
		}
		out, err := runner.Run(opts.ctx(), st, spec)
		if err != nil {
			return fairnessOutcome{}, err
		}
		o := fairnessOutcome{out: out}
		p95s := victimP95s(out, victims)
		o.series = Series{Name: "victim p95 " + c.label}
		for i, p := range p95s {
			o.series.X = append(o.series.X, float64(i))
			o.series.Y = append(o.series.Y, p)
		}
		return o, nil
	}

	// The three configurations are independent simulations: fan them
	// out on the sweep pool.
	results, err := SweepContext(opts.ctx(), len(configs), func(i int) (fairnessOutcome, error) {
		return runOne(configs[i])
	})
	if err != nil {
		return nil, err
	}

	f := &Figure{
		ID: "fairness",
		Title: fmt.Sprintf("Multi-tenant fairness: %d victims + 1 aggressor at %dx, setup %d (max-min partition vs shared gate)",
			victims, aggFactor, setupID),
	}
	basePs := victimP95s(results[0].out, victims)
	for i, c := range configs {
		f.Series = append(f.Series, results[i].series)
		r := results[i].out.Total
		agg := uint64(0)
		for _, cr := range r.Classes {
			if cr.Class == 0 && len(configs[i].mix) > victims {
				agg = cr.Completed
			}
		}
		f.Notes = append(f.Notes, fmt.Sprintf(
			"%s: victim p95s %.3gs/%.3gs/%.3gs, throughput %.2f tx/s, aggressor completed %d",
			c.label, results[i].series.Y[0], results[i].series.Y[1], results[i].series.Y[2],
			r.Throughput(), agg))
	}
	// The isolation verdict: every victim within 2x of its own
	// baseline under fairness, and at least one victim blown past it
	// without.
	worst := func(i int) float64 {
		ratio := 0.0
		for v, p := range victimP95s(results[i].out, victims) {
			if basePs[v] > 0 && p/basePs[v] > ratio {
				ratio = p / basePs[v]
			}
		}
		return ratio
	}
	offWorst, onWorst := worst(1), worst(2)
	f.Series = append(f.Series, Series{
		Name: "worst victim p95 ratio vs baseline (off, on)",
		X:    []float64{0, 1},
		Y:    []float64{offWorst, onWorst},
	})
	if fr := results[2].out.Fairness; fr != nil {
		f.Notes = append(f.Notes, fmt.Sprintf(
			"fairness loop: final limits %v, %d iterations, %d slot moves",
			fr.Limits, fr.Iterations, fr.Moves))
	}
	f.Notes = append(f.Notes, fmt.Sprintf(
		"expect: fairness-on holds every victim within 2x of baseline (worst %.2fx), fairness-off does not (worst %.2fx)",
		onWorst, offWorst))
	return f, nil
}
