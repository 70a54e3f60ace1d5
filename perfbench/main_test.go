package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"extsched/internal/bufferpool"
	"extsched/internal/experiments"
	"extsched/internal/workload"
)

// TestSweepPointMatchesRunClosed pins the benchmark's hand-built
// paper-sweep stack to experiments.RunClosed.
func TestSweepPointMatchesRunClosed(t *testing.T) {
	s, err := workload.SetupByID(1)
	if err != nil {
		t.Fatal(err)
	}
	const mpl, seed = 5, 1
	var x rep
	if err := sweepPoint(nil, -1, &x, s, mpl, seed); err != nil {
		t.Fatal(err)
	}
	want, err := experiments.RunClosed(s, mpl, nil, workload.DBOptions{}, experiments.RunOpts{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	got := x.fps[0]
	if got.Completed != want.Metrics.Completed || got.Throughput != want.Throughput() ||
		got.MeanRT != want.MeanRT() || got.Restarts != want.Metrics.Restarts || got.LockWaits != want.Lock.Waits {
		t.Fatalf("benchmark point %+v differs from RunClosed %+v", got, want)
	}
}

// TestPerturbedReferenceCaught runs one paper-sweep grid against the
// stored reference and against a copy with one value moved by one
// unit in the last place: the first passes, the second fails exactly
// that run.
func TestPerturbedReferenceCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a whole paper-sweep grid twice")
	}
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 0, seconds: 1e-9, out: t.TempDir(), refs: refs}
	r, err := paperSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.attempted != int64(len(sweepSetups)*len(sweepMPLs)) {
		t.Fatalf("unperturbed reference: %d of %d runs failed", r.failed, r.attempted)
	}

	ref, _ := refs.lookup("paper-sweep", 0)
	bad := append([]runFP(nil), ref...)
	bad[7].MeanRT = math.Nextafter(bad[7].MeanRT, math.Inf(1))
	cfg.refs = references{"paper-sweep": {"0": bad}}
	r, err = paperSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 {
		t.Fatalf("perturbed reference: %d runs failed, want 1", r.failed)
	}
}

func TestMismatches(t *testing.T) {
	a := []runFP{{Name: "x", Completed: 1}, {Name: "y", Routed: []uint64{1, 2}}}
	b := []runFP{{Name: "x", Completed: 1}, {Name: "y", Routed: []uint64{1, 3}}}
	if n := mismatches(a, a); n != 0 {
		t.Errorf("identical: %d mismatches", n)
	}
	if n := mismatches(a, b); n != 1 {
		t.Errorf("one routed count moved: %d mismatches, want 1", n)
	}
	if n := mismatches(a, a[:1]); n != 1 {
		t.Errorf("missing run: %d mismatches, want 1", n)
	}
}

// TestProfShares profiles a buffer-pool loop and checks the decoder
// charges it to prof.bufferpool.
func TestProfShares(t *testing.T) {
	runtime.GC()
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	pool := bufferpool.New(1 << 10)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for p := uint64(0); p < 1<<12; p++ {
			pool.Access(p * 7919 % (1 << 11))
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, n, err := profShares(path)
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Skipf("only %d samples", n)
	}
	// Garbage left by earlier tests may still be collected while the
	// profile runs, so compare against the other layers, not prof.gc.
	for k, v := range shares {
		if k != "prof.bufferpool" && k != profGC && v >= shares["prof.bufferpool"] {
			t.Errorf("%s = %v >= prof.bufferpool = %v over %d samples", k, v, shares["prof.bufferpool"], n)
		}
	}
	for k := range profLayers {
		if _, ok := shares[profLayers[k]]; !ok {
			t.Errorf("share %s missing", profLayers[k])
		}
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"extsched/internal/sim.(*Engine).Step":        "extsched/internal/sim",
		"net/http.(*conn).serve":                      "net/http",
		"runtime.mallocgc":                            "runtime",
		"extsched/internal/bufferpool.(*Pool).Access": "extsched/internal/bufferpool",
		"main.main": "main",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestGateHTTPTraced runs a short traced gate-http loop; under -race it
// checks the span store the clients and handlers share.
func TestGateHTTPTraced(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	r, err := gateHTTP(config{seed: 0, seconds: 2, trace: true, out: t.TempDir(), refs: refs})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%d of %d requests failed", r.failed, r.attempted)
	}
	for _, k := range []string{"gate.admit_us_p50", "handler.us_p50", "http.overhead_us_p50"} {
		if r.metrics[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, r.metrics[k])
		}
	}
}
