package gate

import (
	"context"
	"runtime"
	"sync"
	"testing"
)

// TestControllerLoopsFlatHeap is the leak check for the live gate's
// feedback loops. A gate never stops its SLO and fairness loops, so
// the reactions a loop records must go to a bounded log. Each loop is
// armed in turn on a fresh gate, which then serves 1M requests, and
// the garbage-collected heap is sampled after every tenth of them. The
// SLO and fairness loops react every ten completions; the auto-tune
// loop settles after a few reactions and then only observes. From the
// second sample on the heap must stay flat: the mean of the last
// quarter of the samples within 1 MiB of the early ones. An unbounded
// reaction log grows by tens of bytes per reaction, several MiB over
// the run.
func TestControllerLoopsFlatHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: 1M requests per loop, skipped with -short")
	}
	loops := []struct {
		name string
		cfg  Config
		// workers is the number of goroutines issuing requests.
		workers int
		arm     func(*Gate) error
		// reactions reports the loop's reaction count, to prove it ran.
		reactions func(*Gate) int
	}{
		// More workers than slots keep a request queued at most
		// completions, so the auto-tune loop sees the saturated gate it
		// needs before it reacts.
		{"autotune", Config{Limit: 1}, 4,
			func(g *Gate) error {
				return g.EnableAutoTune(TuneConfig{MaxThroughputLoss: 0.05, ReferenceThroughput: 1, MinObservations: 10})
			},
			func(g *Gate) int { return g.TuneStatus().Iterations }},
		{"slo", Config{Limit: 4, PercentileSamples: 64}, 1,
			func(g *Gate) error {
				return g.EnableSLOTune(SLOTuneConfig{Class: ClassHigh, Target: 1e-9, MinObservations: 10})
			},
			func(g *Gate) int { return g.SLOTuneStatus().Iterations }},
		{"fairness", Config{Limit: 4}, 1,
			func(g *Gate) error {
				return g.EnableFairness(FairnessConfig{Weights: map[Class]float64{ClassLow: 1, ClassHigh: 3}, MinObservations: 10})
			},
			func(g *Gate) int { return g.FairnessStatus().Iterations }},
	}
	const (
		rounds   = 10
		perRound = 100_000
		slack    = 1 << 20
	)
	for _, lp := range loops {
		t.Run(lp.name, func(t *testing.T) {
			g, err := New(lp.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := lp.arm(g); err != nil {
				t.Fatal(err)
			}
			workers := lp.workers
			heap := make([]uint64, 0, rounds)
			for r := 0; r < rounds; r++ {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := w; i < perRound; i += workers {
							tk, err := g.AcquireRequest(context.Background(), Request{Class: Class(i % 2)})
							if err != nil {
								t.Error(err)
								return
							}
							tk.Release(Result{})
						}
					}(w)
				}
				wg.Wait()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				heap = append(heap, ms.HeapAlloc)
			}
			if n := lp.reactions(g); n == 0 {
				t.Fatal("the loop never reacted")
			}
			mean := func(xs []uint64) float64 {
				var sum float64
				for _, x := range xs {
					sum += float64(x)
				}
				return sum / float64(len(xs))
			}
			q := rounds / 4
			early := mean(heap[1 : 1+q])
			late := mean(heap[rounds-q:])
			if late > early+slack {
				t.Errorf("heap grew across %d requests: early mean %.0f bytes, late mean %.0f bytes (want late <= early + %d)",
					rounds*perRound, early, late, slack)
			}
			t.Logf("%s: %d reactions; heap early %.2f MiB late %.2f MiB",
				lp.name, lp.reactions(g), early/(1<<20), late/(1<<20))
		})
	}
}
