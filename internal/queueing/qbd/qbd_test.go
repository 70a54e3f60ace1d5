package qbd

import (
	"fmt"
	"math"
	"testing"

	"extsched/internal/dist"
	"extsched/internal/queueing/ctmc"
	"extsched/internal/queueing/mg1"
)

func TestMM1Limit(t *testing.T) {
	// C²=1 (exponential-equivalent H2): for ANY MPL the system is an
	// M/M/1 (PS and FIFO coincide for exponential with memorylessness in
	// the mean): E[N] = ρ/(1−ρ).
	job := dist.FitH2(1, 1.0000001) // C² ≈ 1, keeps P strictly inside (0,1)
	for _, mpl := range []int{1, 2, 5, 10} {
		sol, err := Solve(Model{Lambda: 0.7, Job: job, MPL: mpl})
		if err != nil {
			t.Fatalf("MPL=%d: %v", mpl, err)
		}
		want := 0.7 / 0.3
		if math.Abs(sol.MeanJobs-want)/want > 0.01 {
			t.Errorf("MPL=%d: E[N] = %v, want ~%v", mpl, sol.MeanJobs, want)
		}
	}
}

func TestMPL1IsMG1FIFO(t *testing.T) {
	// With MPL=1 the system is a plain M/G/1 FIFO queue; the mean
	// response time must match Pollaczek–Khinchine.
	for _, c2 := range []float64{2, 5, 10, 15} {
		job := dist.FitH2(1, c2)
		lambda := 0.7
		sol, err := Solve(Model{Lambda: lambda, Job: job, MPL: 1})
		if err != nil {
			t.Fatalf("C²=%v: %v", c2, err)
		}
		want := mg1.Params{Lambda: lambda, MeanSize: 1, C2: c2}.FIFOResponse()
		if math.Abs(sol.MeanRT-want)/want > 0.005 {
			t.Errorf("C²=%v: E[T] = %v, want PK %v", c2, sol.MeanRT, want)
		}
	}
}

func TestHighMPLApproachesPS(t *testing.T) {
	// As MPL grows, mean RT approaches the PS limit E[S]/(1−ρ),
	// insensitive to C².
	job := dist.FitH2(1, 10)
	lambda := 0.7
	ps := 1 / (1 - 0.7)
	sol, err := Solve(Model{Lambda: lambda, Job: job, MPL: 60})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.MeanRT-ps)/ps > 0.05 {
		t.Errorf("MPL=60: E[T] = %v, want ≈ PS %v", sol.MeanRT, ps)
	}
}

func TestRTDecreasingInMPLForHighC2(t *testing.T) {
	// Fig. 10's key shape: for high C², mean RT decreases (weakly) as
	// MPL grows from 1 toward the PS value.
	job := dist.FitH2(1, 15)
	lambda := 0.7
	prev := math.Inf(1)
	for _, mpl := range []int{1, 2, 5, 10, 20, 35} {
		sol, err := Solve(Model{Lambda: lambda, Job: job, MPL: mpl})
		if err != nil {
			t.Fatalf("MPL=%d: %v", mpl, err)
		}
		if sol.MeanRT > prev*1.02 {
			t.Errorf("MPL=%d: RT %v rose above previous %v", mpl, sol.MeanRT, prev)
		}
		prev = sol.MeanRT
	}
}

func TestLowC2InsensitiveToMPL(t *testing.T) {
	// Fig. 10: for C² ≤ 2 the RT is nearly flat in MPL (within ~15% of
	// PS already at MPL=5).
	job := dist.FitH2(1, 2)
	lambda := 0.7
	ps := 1 / (1 - 0.7)
	sol, err := Solve(Model{Lambda: lambda, Job: job, MPL: 5})
	if err != nil {
		t.Fatal(err)
	}
	if (sol.MeanRT-ps)/ps > 0.15 {
		t.Errorf("C²=2, MPL=5: RT %v more than 15%% above PS %v", sol.MeanRT, ps)
	}
}

func TestAgreesWithTruncatedCTMC(t *testing.T) {
	// The matrix-geometric solution and the truncated Gauss–Seidel
	// solution of the same chain must agree closely.
	cases := []struct {
		lambda, c2 float64
		mpl        int
	}{
		{0.5, 2, 1},
		{0.5, 5, 3},
		{0.7, 2, 2},
		{0.7, 10, 5},
		{0.8, 5, 8},
	}
	for _, tc := range cases {
		job := dist.FitH2(1, tc.c2)
		qs, err := Solve(Model{Lambda: tc.lambda, Job: job, MPL: tc.mpl})
		if err != nil {
			t.Fatalf("%+v: qbd: %v", tc, err)
		}
		cs, err := ctmc.Solve(ctmc.FlexModel{Lambda: tc.lambda, Job: job, MPL: tc.mpl})
		if err != nil {
			t.Fatalf("%+v: ctmc: %v", tc, err)
		}
		if rel := math.Abs(qs.MeanRT-cs.MeanRT) / cs.MeanRT; rel > 0.01 {
			t.Errorf("%+v: qbd RT %v vs ctmc RT %v (rel %v)", tc, qs.MeanRT, cs.MeanRT, rel)
		}
		// Level probabilities should also agree for small n.
		for n := 0; n <= tc.mpl+3; n++ {
			qp, cp := qs.LevelProb(n), cs.Distribution[n]
			if math.Abs(qp-cp) > 0.005 {
				t.Errorf("%+v: P(N=%d) qbd %v vs ctmc %v", tc, n, qp, cp)
			}
		}
	}
}

func TestSpectralRadiusBelowOne(t *testing.T) {
	job := dist.FitH2(1, 10)
	sol, err := Solve(Model{Lambda: 0.9, Job: job, MPL: 10})
	if err != nil {
		t.Fatal(err)
	}
	if sol.SpectralRadius >= 1 {
		t.Errorf("sp(R) = %v, want < 1", sol.SpectralRadius)
	}
	if sol.SpectralRadius <= 0 {
		t.Errorf("sp(R) = %v, want > 0", sol.SpectralRadius)
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	job := dist.FitH2(1, 5)
	sol, err := Solve(Model{Lambda: 0.7, Job: job, MPL: 4})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for n := 0; n < 400; n++ {
		total += sol.LevelProb(n)
	}
	if math.Abs(total-1) > 1e-6 {
		t.Errorf("Σ P(N=n) = %v, want 1", total)
	}
}

func TestUtilizationMatchesRho(t *testing.T) {
	// P(N=0) must equal 1−ρ for any work-conserving single-server queue.
	for _, tc := range []struct {
		lambda, c2 float64
		mpl        int
	}{{0.3, 5, 2}, {0.7, 15, 10}, {0.9, 2, 3}} {
		job := dist.FitH2(1, tc.c2)
		sol, err := Solve(Model{Lambda: tc.lambda, Job: job, MPL: tc.mpl})
		if err != nil {
			t.Fatal(err)
		}
		p0 := sol.LevelProb(0)
		if math.Abs(p0-(1-tc.lambda)) > 1e-6 {
			t.Errorf("λ=%v C²=%v MPL=%d: P(N=0)=%v, want %v", tc.lambda, tc.c2, tc.mpl, p0, 1-tc.lambda)
		}
	}
}

func TestValidation(t *testing.T) {
	good := dist.FitH2(1, 5)
	cases := []Model{
		{Lambda: 0, Job: good, MPL: 1},
		{Lambda: 1.5, Job: good, MPL: 1},                // unstable
		{Lambda: 0.5, Job: good, MPL: 0},                // bad MPL
		{Lambda: 0.5, Job: dist.NewH2(1, 1, 1), MPL: 1}, // degenerate P=1
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted: %+v", i, m)
		}
	}
}

func TestMinMPLForResponseTime(t *testing.T) {
	// Low C² needs small MPL; high C² needs larger MPL; higher load
	// needs larger MPL still (the paper's §4.2 summary).
	lowC2 := dist.FitH2(1, 1.5)
	highC2 := dist.FitH2(1, 15)
	mLow, err := MinMPLForResponseTime(0.7, lowC2, 0.1, 50)
	if err != nil {
		t.Fatal(err)
	}
	mHigh, err := MinMPLForResponseTime(0.7, highC2, 0.1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if mLow > 5 {
		t.Errorf("min MPL for C²=1.5 = %d, want <= 5", mLow)
	}
	if mHigh <= mLow {
		t.Errorf("min MPL for C²=15 (%d) should exceed C²=1.5 (%d)", mHigh, mLow)
	}
	mHigh9, err := MinMPLForResponseTime(0.9, highC2, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if mHigh9 < mHigh {
		t.Errorf("min MPL at load .9 (%d) should be >= load .7 (%d)", mHigh9, mHigh)
	}
	if _, err := MinMPLForResponseTime(1.2, highC2, 0.1, 10); err == nil {
		t.Error("unstable MinMPLForResponseTime should error")
	}
}

func TestLittleLawInternalConsistency(t *testing.T) {
	job := dist.FitH2(2, 8)
	lambda := 0.35 // rho = 0.7
	sol, err := Solve(Model{Lambda: lambda, Job: job, MPL: 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.MeanRT-sol.MeanJobs/lambda) > 1e-12 {
		t.Error("MeanRT != MeanJobs/lambda")
	}
	// Mean size 2 scales RT accordingly: PS limit = 2/(1-0.7).
	ps := 2 / (1 - 0.7)
	if sol.MeanRT < ps*0.99 {
		t.Errorf("RT %v below the PS lower bound %v", sol.MeanRT, ps)
	}
}

func TestBinarySearchMatchesLinearScan(t *testing.T) {
	for _, tc := range []struct {
		lambda, c2, tol float64
		maxMPL          int
	}{
		{0.7, 5, 0.1, 40},
		{0.7, 15, 0.1, 40},
		{0.5, 10, 0.2, 30},
	} {
		job := dist.FitH2(1, tc.c2)
		bin, err := MinMPLForResponseTime(tc.lambda, job, tc.tol, tc.maxMPL)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := minMPLForResponseTimeLinear(tc.lambda, job, tc.tol, tc.maxMPL)
		if err != nil {
			t.Fatal(err)
		}
		if bin != lin {
			t.Errorf("%+v: binary %d != linear %d", tc, bin, lin)
		}
	}
}

func TestMinMPLUnreachableTarget(t *testing.T) {
	job := dist.FitH2(1, 15)
	// Tiny tolerance at high load: even a large MPL can't reach it.
	m, err := MinMPLForResponseTime(0.9, job, 0.0001, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m != 6 {
		t.Errorf("unreachable target should return maxMPL+1, got %d", m)
	}
}

// minMPLForResponseTimeLinear is the O(maxMPL) scan that validates
// MinMPLForResponseTime's binary search (and its monotonicity
// assumption).
func minMPLForResponseTimeLinear(lambda float64, job dist.H2, tolerance float64, maxMPL int) (int, error) {
	rho := lambda * job.Mean()
	if rho >= 1 {
		return 0, fmt.Errorf("qbd: unstable system, rho = %v", rho)
	}
	psRT := job.Mean() / (1 - rho)
	target := psRT * (1 + tolerance)
	for mpl := 1; mpl <= maxMPL; mpl++ {
		sol, err := Solve(Model{Lambda: lambda, Job: job, MPL: mpl})
		if err != nil {
			return 0, err
		}
		if sol.MeanRT <= target {
			return mpl, nil
		}
	}
	return maxMPL + 1, nil
}
