package runner

import (
	"context"
	"reflect"
	"testing"

	"extsched/internal/dbfe"
	"extsched/internal/dbms"
	"extsched/internal/sim"
	"extsched/internal/trace"
	"extsched/internal/workload"
	"extsched/metrics"
)

// testStack assembles a fresh setup-1 stack (the paper's CPU-bound
// TPC-C-like workload on 1 CPU / 1 disk).
func testStack(t *testing.T, mpl int, seed uint64) Stack {
	t.Helper()
	setup, err := workload.SetupByID(1)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	db, err := dbms.New(eng, setup.BuildConfig(workload.DBOptions{Seed: seed}))
	if err != nil {
		t.Fatal(err)
	}
	fe := dbfe.New(eng, db, mpl, nil)
	gen, err := workload.NewGenerator(setup.Workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	workload.Prewarm(db, setup.Workload, seed)
	return Stack{Eng: eng, DB: db, FE: fe, Gen: gen, Seed: seed}
}

func TestSpecValidate(t *testing.T) {
	neg := -1
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"empty", Spec{}, false},
		{"negative warmup", Spec{Warmup: -1, Phases: []Phase{{Kind: KindClosed, Duration: 1}}}, false},
		{"unknown kind", Spec{Phases: []Phase{{Kind: "weird", Duration: 1}}}, false},
		{"open without lambda", Spec{Phases: []Phase{{Kind: KindOpen, Duration: 1}}}, false},
		{"ramp without duration", Spec{Phases: []Phase{{Kind: KindRamp, Lambda: 1, Lambda2: 2}}}, false},
		{"ramp both rates zero", Spec{Phases: []Phase{{Kind: KindRamp, Duration: 1}}}, false},
		{"burst factor below one", Spec{Phases: []Phase{{Kind: KindBurst, Lambda: 5, BurstFactor: 0.5, Duration: 1}}}, false},
		{"trace without trace", Spec{Phases: []Phase{{Kind: KindTrace, Duration: 1}}}, false},
		{"negative event offset", Spec{Phases: []Phase{{Kind: KindClosed, Duration: 1, Events: []Event{{At: -1}}}}}, false},
		{"negative event MPL", Spec{Phases: []Phase{{Kind: KindClosed, Duration: 1, Events: []Event{{SetMPL: &neg}}}}}, false},
		{"controller without reference", Spec{Phases: []Phase{{Kind: KindClosed, Duration: 1,
			Events: []Event{{EnableController: &ControllerSpec{MaxThroughputLoss: 0.05}}}}}}, false},
		{"bad wfq weight", Spec{Phases: []Phase{{Kind: KindClosed, Duration: 1, Events: []Event{{SetWeights: map[string]float64{"high": 0}}}}}}, false},
		{"valid closed", Spec{Warmup: 1, Phases: []Phase{{Kind: KindClosed, Duration: 1}}}, true},
		{"valid multi", Spec{Phases: []Phase{
			{Kind: KindClosed, Duration: 1},
			{Kind: KindRamp, Lambda: 1, Lambda2: 5, Duration: 2},
			{Kind: KindBurst, Lambda: 5, Duration: 1},
		}}, true},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid spec accepted", tc.name)
		}
	}
}

// TestWindowingRule is the regression test for the unified measurement
// window: an overloaded open run must count exactly the completions
// that happened inside [warmup, warmup+duration] — draining the
// backlog afterwards must not change the report.
func TestWindowingRule(t *testing.T) {
	st := testStack(t, 2, 1)
	// Offered load far above what MPL 2 can serve: a large backlog is
	// guaranteed to be in flight when the window closes.
	out, err := Run(context.Background(), st, Spec{
		Warmup: 5,
		Phases: []Phase{{Kind: KindOpen, Lambda: 300, Duration: 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Total.Window != 30 {
		t.Errorf("window = %v, want 30", out.Total.Window)
	}
	if st.FE.QueueLen() == 0 {
		t.Fatal("test needs a backlog at window close to be meaningful")
	}
	inWindow := out.Total.Completed
	// Drain everything still queued or in flight; the report must not
	// move (the runner's accounting hook is off).
	st.Eng.RunAll()
	after := st.FE.Metrics().Completed
	if after <= inWindow {
		t.Fatalf("drain completed nothing (%d vs %d): backlog assumption broken", after, inWindow)
	}
	if got := out.Total.Completed; got != inWindow {
		t.Errorf("report changed after drain: %d -> %d", inWindow, got)
	}
	// Throughput is in-window completions over the window, and cannot
	// exceed the service capacity at MPL 2 (far below the offered 300/s).
	if tput := out.Total.Throughput(); tput >= 300 {
		t.Errorf("throughput %v includes post-window completions", tput)
	}
}

func TestPhaseSequencingAndReports(t *testing.T) {
	st := testStack(t, 5, 2)
	out, err := Run(context.Background(), st, Spec{
		Warmup: 10,
		Phases: []Phase{
			{Name: "steady", Kind: KindClosed, Clients: 50, Duration: 40},
			{Name: "surge", Kind: KindOpen, Lambda: 60, Duration: 40},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(out.Phases))
	}
	if out.Phases[0].Name != "steady" || out.Phases[1].Name != "surge" {
		t.Errorf("phase names wrong: %q, %q", out.Phases[0].Name, out.Phases[1].Name)
	}
	if out.Phases[0].Window != 40 || out.Phases[1].Window != 40 {
		t.Errorf("phase windows = %v, %v, want 40 each (warmup excluded)",
			out.Phases[0].Window, out.Phases[1].Window)
	}
	if out.Total.Window != 80 {
		t.Errorf("total window = %v, want 80", out.Total.Window)
	}
	if sum := out.Phases[0].Completed + out.Phases[1].Completed; sum != out.Total.Completed {
		t.Errorf("phase completions %d don't sum to total %d", sum, out.Total.Completed)
	}
	if out.Total.Completed == 0 || out.Total.CPUUtil <= 0 {
		t.Errorf("empty total report: %+v", out.Total)
	}
}

func TestSnapshotsAreWindowed(t *testing.T) {
	st := testStack(t, 5, 3)
	var col metrics.Collector
	out, err := Run(context.Background(), st, Spec{
		Warmup:         5,
		SampleInterval: 10,
		Phases:         []Phase{{Kind: KindClosed, Clients: 50, Duration: 100}},
	}, &col)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Snapshots) != 10 {
		t.Fatalf("snapshots = %d, want 10", len(col.Snapshots))
	}
	var sum uint64
	prev := 5.0
	for i, s := range col.Snapshots {
		if s.Window != 10 {
			t.Errorf("snapshot %d window = %v, want 10", i, s.Window)
		}
		if s.Time != prev+10 {
			t.Errorf("snapshot %d at %v, want %v", i, s.Time, prev+10)
		}
		prev = s.Time
		if s.Completed == 0 || s.Throughput <= 0 {
			t.Errorf("snapshot %d empty: %+v", i, s)
		}
		if s.Limit != 5 {
			t.Errorf("snapshot %d limit = %d, want 5", i, s.Limit)
		}
		if s.Phase != "closed" {
			t.Errorf("snapshot %d phase = %q", i, s.Phase)
		}
		sum += s.Completed
	}
	if sum != out.Total.Completed {
		t.Errorf("snapshot completions %d don't sum to total %d", sum, out.Total.Completed)
	}
}

func TestMidPhaseEvents(t *testing.T) {
	st := testStack(t, 2, 4)
	mpl := 20
	var col metrics.Collector
	out, err := Run(context.Background(), st, Spec{
		SampleInterval: 10,
		Phases: []Phase{{
			Kind: KindClosed, Clients: 50, Duration: 100,
			Events: []Event{{At: 50, SetMPL: &mpl}},
		}},
	}, &col)
	if err != nil {
		t.Fatal(err)
	}
	if out.FinalMPL != 20 {
		t.Errorf("final MPL = %d, want 20", out.FinalMPL)
	}
	// Snapshots taken before t=50 see limit 2; after, 20.
	for _, s := range col.Snapshots {
		want := 2
		if s.Time >= 50 {
			want = 20
		}
		if s.Limit != want {
			t.Errorf("snapshot at %v: limit %d, want %d", s.Time, s.Limit, want)
		}
	}
}

func TestControllerEventAndEarlyStop(t *testing.T) {
	// Measure a no-MPL reference, then let the controller tune a fresh
	// stack from a deliberately wrong start.
	ref := testStack(t, 0, 5)
	base, err := Run(context.Background(), ref, Spec{
		Warmup: 20,
		Phases: []Phase{{Kind: KindClosed, Duration: 150}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := testStack(t, 30, 5)
	out, err := Run(context.Background(), st, Spec{
		Warmup:         20,
		SampleInterval: 25,
		Phases: []Phase{{
			Kind: KindClosed, Duration: 4000,
			Events: []Event{{At: 0, EnableController: &ControllerSpec{
				MaxThroughputLoss:   0.05,
				ReferenceThroughput: base.Total.Throughput(),
				StopOnConverge:      true,
			}}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Tune == nil {
		t.Fatal("no tune report")
	}
	if !out.Tune.Converged {
		t.Errorf("controller did not converge: %+v", out.Tune)
	}
	if out.Tune.StartMPL != 30 {
		t.Errorf("start MPL = %d, want 30", out.Tune.StartMPL)
	}
	if out.Tune.FinalMPL < 1 || out.Tune.FinalMPL >= 30 {
		t.Errorf("final MPL = %d, want tuned below the wasteful 30", out.Tune.FinalMPL)
	}
	// Early stop: the run ended well before the 4000-second horizon.
	if out.Total.Window >= 4000 {
		t.Errorf("run used the whole horizon (%v): early stop broken", out.Total.Window)
	}
}

// TestStopOnConvergeWithoutSampling: early stop must not depend on
// snapshot breakpoints — a converging controller halts the engine from
// the completion stream even when the spec has no SampleInterval.
func TestStopOnConvergeWithoutSampling(t *testing.T) {
	ref := testStack(t, 0, 5)
	base, err := Run(context.Background(), ref, Spec{
		Warmup: 20,
		Phases: []Phase{{Kind: KindClosed, Duration: 150}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := testStack(t, 30, 5)
	out, err := Run(context.Background(), st, Spec{
		Warmup: 20,
		Phases: []Phase{{
			Kind: KindClosed, Duration: 100000,
			Events: []Event{{At: 0, EnableController: &ControllerSpec{
				MaxThroughputLoss:   0.05,
				ReferenceThroughput: base.Total.Throughput(),
				StopOnConverge:      true,
			}}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Tune == nil || !out.Tune.Converged {
		t.Fatalf("controller did not converge: %+v", out.Tune)
	}
	if out.Total.Window >= 100000 {
		t.Errorf("run consumed the whole horizon (%v) despite convergence", out.Total.Window)
	}
}

func TestDisableControllerFreezesTuneReport(t *testing.T) {
	ref := testStack(t, 0, 5)
	base, err := Run(context.Background(), ref, Spec{
		Warmup: 20,
		Phases: []Phase{{Kind: KindClosed, Duration: 150}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := testStack(t, 8, 5)
	out, err := Run(context.Background(), st, Spec{
		Warmup:         20,
		SampleInterval: 25,
		Phases: []Phase{
			{Kind: KindClosed, Duration: 600, Events: []Event{{EnableController: &ControllerSpec{
				MaxThroughputLoss:   0.05,
				ReferenceThroughput: base.Total.Throughput(),
			}}}},
			{Kind: KindClosed, Duration: 50, Events: []Event{{DisableController: true}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Tune == nil {
		t.Fatal("tune report lost after DisableController")
	}
	if out.Tune.Iterations == 0 {
		t.Error("tune report recorded no iterations")
	}
	if out.Tune.FinalMPL != out.FinalMPL {
		t.Errorf("disabled controller's MPL %d should be frozen (final %d)",
			out.Tune.FinalMPL, out.FinalMPL)
	}
}

func TestZeroDurationPhase(t *testing.T) {
	st := testStack(t, 5, 6)
	out, err := Run(context.Background(), st, Spec{
		Phases: []Phase{
			{Name: "blip", Kind: KindClosed, Clients: 10, Duration: 0},
			{Name: "main", Kind: KindOpen, Lambda: 40, Duration: 50},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(out.Phases))
	}
	if out.Phases[0].Window != 0 {
		t.Errorf("zero-duration phase window = %v", out.Phases[0].Window)
	}
	// The blip's 10 clients were submitted at the boundary instant and
	// completed during the main phase (stopped clients do not recycle).
	if out.Total.Completed == 0 {
		t.Error("no completions")
	}
	if out.Total.Window != 50 {
		t.Errorf("total window = %v, want 50", out.Total.Window)
	}
}

func TestRunDeterministicAcrossRebuilds(t *testing.T) {
	tr := trace.SyntheticRetailer(2000, 9)
	spec := Spec{
		Warmup:         5,
		SampleInterval: 7,
		Phases: []Phase{
			{Kind: KindClosed, Clients: 30, Duration: 30},
			{Kind: KindRamp, Lambda: 10, Lambda2: 80, Duration: 30},
			{Kind: KindTrace, Trace: tr, TraceSpeedup: 2, Duration: 20},
		},
	}
	do := func() (Outcome, []metrics.Snapshot) {
		st := testStack(t, 4, 7)
		st.PercentileSamples = 1000
		var col metrics.Collector
		out, err := Run(context.Background(), st, spec, &col)
		if err != nil {
			t.Fatal(err)
		}
		return out, col.Snapshots
	}
	o1, s1 := do()
	o2, s2 := do()
	if !reflect.DeepEqual(o1, o2) {
		t.Errorf("same-seed outcomes differ:\n%+v\nvs\n%+v", o1, o2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("same-seed snapshot streams differ")
	}
	if len(s1) == 0 {
		t.Error("no snapshots collected")
	}
	if o1.Total.P95 <= 0 || o1.Total.P95 < o1.Total.P50 {
		t.Errorf("percentiles not populated/ordered: p50 %v p95 %v", o1.Total.P50, o1.Total.P95)
	}
}

func TestRunContextCancellation(t *testing.T) {
	st := testStack(t, 5, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, st, Spec{
		SampleInterval: 1,
		Phases:         []Phase{{Kind: KindClosed, Duration: 100}},
	}); err == nil {
		t.Error("canceled context accepted")
	}
}
