package experiments

import (
	"fmt"
	"reflect"
	"time"

	"extsched/internal/runner"
	"extsched/internal/workload"
)

// PDSFigure measures the conservative parallel engine against the
// sequential single-queue engine on the same sharded runs: identical
// seeds, fleets, and open workloads, timed wall-clock. The parallel
// run must produce a DeepEqual Outcome — the speedup column is only
// meaningful because the results are the same — so this figure is both
// a performance plot and an end-to-end equivalence check.
//
// The lookahead is the open arrival process: the coordinator's next
// arrival bounds each window, so windows shrink as offered load grows.
// On a single-core runner the parallel engine cannot win — the figure
// then reports the synchronization overhead (speedup < 1), which is
// the honest number for that machine.
func PDSFigure(setupID int, opts RunOpts) (*Figure, error) {
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults(setup)
	// Per-shard nominal capacity from a no-MPL closed probe.
	base, err := RunClosed(setup, 0, nil, workload.DBOptions{}, opts)
	if err != nil {
		return nil, err
	}
	ref := base.Throughput()
	if ref <= 0 {
		return nil, fmt.Errorf("experiments: degenerate baseline throughput")
	}
	const perShardMPL = 4
	fleets := []int{2, 4, 8}
	seg := opts.Measure
	seq := Series{Name: "sequential wall secs"}
	par := Series{Name: "parallel wall secs"}
	speedup := Series{Name: "speedup (seq/par)"}
	f := &Figure{
		ID: "pds",
		Title: fmt.Sprintf("Conservative parallel engine vs sequential, setup %d (open load at 0.6 of fleet capacity, %d workers)",
			setupID, EffectiveWorkers()),
	}
	for _, n := range fleets {
		speeds := make([]float64, n)
		for i := range speeds {
			speeds[i] = 1
		}
		lambda := 0.6 * float64(n) * ref
		spec := runner.Spec{
			Warmup:         opts.Warmup,
			SampleInterval: seg / 10,
			Phases: []runner.Phase{
				{Name: "open", Kind: runner.KindOpen, Lambda: lambda, Duration: seg},
			},
		}

		sst, err := buildShardedStack(setup, speeds, "jsq", perShardMPL*n, workload.DBOptions{}, opts, false)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		seqOut, err := runner.Run(opts.ctx(), sst, spec)
		if err != nil {
			return nil, err
		}
		seqWall := time.Since(t0).Seconds()

		pst, err := buildShardedStack(setup, speeds, "jsq", perShardMPL*n, workload.DBOptions{}, opts, true)
		if err != nil {
			return nil, err
		}
		pspec := spec
		pspec.ParallelShards = true
		t0 = time.Now()
		parOut, err := runner.Run(opts.ctx(), pst, pspec)
		if err != nil {
			return nil, err
		}
		parWall := time.Since(t0).Seconds()

		if !reflect.DeepEqual(seqOut, parOut) {
			return nil, fmt.Errorf("experiments: parallel outcome diverged from sequential at %d shards", n)
		}
		x := float64(n)
		seq.X, seq.Y = append(seq.X, x), append(seq.Y, seqWall)
		par.X, par.Y = append(par.X, x), append(par.Y, parWall)
		sp := seqWall / parWall
		speedup.X, speedup.Y = append(speedup.X, x), append(speedup.Y, sp)
		f.Notes = append(f.Notes, fmt.Sprintf(
			"%d shards: %.2f tx/s, seq %.2fs vs par %.2fs wall (speedup %.2fx), outcomes identical",
			n, seqOut.Total.Throughput(), seqWall, parWall, sp))
	}
	f.Series = append(f.Series, seq, par, speedup)
	f.Notes = append(f.Notes,
		"expect: identical Outcomes at every point (checked); speedup grows with fleet size on multi-core hosts and degrades toward the sync overhead on 1-core runners")
	return f, nil
}
