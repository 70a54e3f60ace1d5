// Package qbd solves the paper's Fig. 9 queueing model exactly by
// matrix-analytic (matrix-geometric) methods.
//
// The model is a quasi-birth-death process: level n is the total number
// of jobs in the system, and the phase records how many of the
// min(n, MPL) in-service jobs are in phase 1 of the H2 job-size
// distribution. For levels above the MPL the chain repeats, so the
// stationary vector obeys π_{MPL+k} = π_MPL · Rᵏ where R is the minimal
// non-negative solution of A0 + R·A1 + R²·A2 = 0. Boundary levels
// 0..MPL are solved directly as a small linear system. Mean response
// time follows from Little's law on the mean population.
//
// The companion package ctmc solves a truncated version of the same
// chain by Gauss–Seidel; the two agree to high precision (see tests),
// which validates both implementations.
package qbd

import (
	"fmt"
	"math"

	"extsched/internal/dist"
	"extsched/internal/queueing/linalg"
)

// Model mirrors ctmc.FlexModel: Poisson(Lambda) arrivals, H2 job sizes,
// PS service capped at MPL concurrent jobs.
type Model struct {
	Lambda float64
	Job    dist.H2
	MPL    int
}

// Validate checks stability and that the H2 phases are non-degenerate
// (0 < P < 1); a degenerate H2 makes part of the phase space
// unreachable and the boundary system singular — use an exponential
// model (C²=1 fit, P=1/2) instead.
func (m Model) Validate() error {
	if m.Lambda <= 0 {
		return fmt.Errorf("qbd: arrival rate %v must be positive", m.Lambda)
	}
	if m.MPL < 1 {
		return fmt.Errorf("qbd: MPL %d must be >= 1", m.MPL)
	}
	if m.Job.P <= 0 || m.Job.P >= 1 {
		return fmt.Errorf("qbd: H2 phase probability %v must lie strictly in (0,1)", m.Job.P)
	}
	if rho := m.Lambda * m.Job.Mean(); rho >= 1 {
		return fmt.Errorf("qbd: unstable system, rho = %v >= 1", rho)
	}
	return nil
}

// Solution holds the matrix-geometric solution.
type Solution struct {
	MeanJobs float64 // E[N], jobs in system (queue + in service)
	MeanRT   float64 // E[T] = E[N]/λ
	R        *linalg.Matrix
	// Boundary[n][n1] = stationary probability of (n jobs, n1 phase-1
	// in service) for n = 0..MPL.
	Boundary [][]float64
	// SpectralRadius estimates sp(R) by power iteration; < 1 confirms
	// the matrix-geometric tail is summable (stability).
	SpectralRadius float64
}

// LevelProb returns P(N = n) for any n >= 0, using the geometric tail
// for n > MPL.
func (s *Solution) LevelProb(n int) float64 {
	m := len(s.Boundary) - 1
	if n < 0 {
		return 0
	}
	if n <= m {
		sum := 0.0
		for _, p := range s.Boundary[n] {
			sum += p
		}
		return sum
	}
	// π_n = π_m R^{n-m}.
	v := make([]float64, len(s.Boundary[m]))
	copy(v, s.Boundary[m])
	for k := 0; k < n-m; k++ {
		v = linalg.VecMul(v, s.R)
	}
	sum := 0.0
	for _, p := range v {
		sum += p
	}
	return sum
}

// blocks builds the repeating QBD blocks A0 (up), A1 (local), A2 (down)
// for levels >= MPL+1, each (MPL+1)×(MPL+1) over phase n1 = 0..MPL.
func (m Model) blocks() (a0, a1, a2 *linalg.Matrix) {
	w := m.MPL + 1
	p, q := m.Job.P, 1-m.Job.P
	mu1, mu2 := m.Job.Mu1, m.Job.Mu2
	k := float64(m.MPL)
	a0 = linalg.Identity(w).Scale(m.Lambda)
	a1 = linalg.New(w, w)
	a2 = linalg.New(w, w)
	for n1 := 0; n1 <= m.MPL; n1++ {
		n2 := m.MPL - n1
		r1 := float64(n1) * mu1 / k // phase-1 completion rate
		r2 := float64(n2) * mu2 / k // phase-2 completion rate
		// Departure with replacement from the queue: the replacement's
		// phase is drawn with probability (p, q).
		if n1 > 0 {
			a2.Set(n1, n1, a2.At(n1, n1)+r1*p)
			a2.Set(n1, n1-1, a2.At(n1, n1-1)+r1*q)
		}
		if n2 > 0 {
			a2.Set(n1, n1+1, a2.At(n1, n1+1)+r2*p)
			a2.Set(n1, n1, a2.At(n1, n1)+r2*q)
		}
		a1.Set(n1, n1, -(m.Lambda + r1 + r2))
	}
	return a0, a1, a2
}

// solveR iterates R ← −(A0 + R²A2)·A1⁻¹ to the minimal non-negative
// solution of A0 + R·A1 + R²·A2 = 0.
func solveR(a0, a1, a2 *linalg.Matrix) (*linalg.Matrix, error) {
	a1inv, err := a1.Inverse()
	if err != nil {
		return nil, fmt.Errorf("qbd: A1 not invertible: %w", err)
	}
	neg := a1inv.Scale(-1)
	r := linalg.New(a0.Rows, a0.Cols)
	for iter := 0; iter < 500000; iter++ {
		next := a0.Add(r.Mul(r).Mul(a2)).Mul(neg)
		diff := linalg.MaxAbsDiff(next, r)
		r = next
		if diff < 1e-14 {
			return r, nil
		}
	}
	return nil, fmt.Errorf("qbd: R iteration did not converge")
}

// Solve computes the stationary solution.
func Solve(m Model) (*Solution, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	mpl := m.MPL
	a0, a1, a2 := m.blocks()
	r, err := solveR(a0, a1, a2)
	if err != nil {
		return nil, err
	}

	// Boundary generator over levels 0..mpl.
	// State layout: level n occupies n+1 consecutive slots (n1 = 0..n).
	offset := make([]int, mpl+1)
	total := 0
	for n := 0; n <= mpl; n++ {
		offset[n] = total
		total += n + 1
	}
	g := linalg.New(total, total)
	p, q := m.Job.P, 1-m.Job.P
	mu1, mu2 := m.Job.Mu1, m.Job.Mu2
	lam := m.Lambda

	addRate := func(fi, ti int, rate float64) {
		g.Set(fi, ti, g.At(fi, ti)+rate)
		g.Set(fi, fi, g.At(fi, fi)-rate)
	}
	for n := 0; n <= mpl; n++ {
		for n1 := 0; n1 <= n; n1++ {
			from := offset[n] + n1
			// Arrivals.
			if n < mpl {
				addRate(from, offset[n+1]+n1+1, lam*p)
				addRate(from, offset[n+1]+n1, lam*q)
			} else {
				// Level mpl → mpl+1 leaves the boundary; only the
				// outflow contributes to the diagonal. The matching
				// inflow returns via the R·A2 correction below.
				g.Set(from, from, g.At(from, from)-lam)
			}
			// Completions (queue empty for n <= mpl: no replacement).
			if n > 0 {
				k := float64(n)
				if n1 > 0 {
					addRate(from, offset[n-1]+n1-1, float64(n1)*mu1/k)
				}
				if n2 := n - n1; n2 > 0 {
					addRate(from, offset[n-1]+n1, float64(n2)*mu2/k)
				}
			}
		}
	}
	// Level-mpl balance gains the tail inflow π_{mpl+1}·A2 = π_mpl·R·A2.
	ra2 := r.Mul(a2)
	for i := 0; i <= mpl; i++ {
		for j := 0; j <= mpl; j++ {
			v := ra2.At(i, j)
			if v != 0 {
				g.Set(offset[mpl]+i, offset[mpl]+j, g.At(offset[mpl]+i, offset[mpl]+j)+v)
			}
		}
	}

	// Solve x·G = 0 with normalization Σ_{n<mpl} x_n + x_mpl·(I−R)⁻¹·1 = 1.
	// Transpose to G'·x' = 0 and replace the last equation.
	iMinusR := linalg.Identity(mpl + 1).Sub(r)
	iMinusRInv, err := iMinusR.Inverse()
	if err != nil {
		return nil, fmt.Errorf("qbd: (I-R) singular — tail not geometric (rho too high?): %w", err)
	}
	ones := make([]float64, mpl+1)
	for i := range ones {
		ones[i] = 1
	}
	tailWeight := iMinusRInv.MulVec(ones) // (I−R)⁻¹·1

	sys := linalg.New(total, total)
	for i := 0; i < total; i++ {
		for j := 0; j < total; j++ {
			sys.Set(i, j, g.At(j, i)) // transpose
		}
	}
	rhs := make([]float64, total)
	// Replace the first equation (balance equations are redundant) with
	// the normalization.
	for j := 0; j < total; j++ {
		sys.Set(0, j, 0)
	}
	for n := 0; n < mpl; n++ {
		for n1 := 0; n1 <= n; n1++ {
			sys.Set(0, offset[n]+n1, 1)
		}
	}
	for n1 := 0; n1 <= mpl; n1++ {
		sys.Set(0, offset[mpl]+n1, tailWeight[n1])
	}
	rhs[0] = 1
	x, err := linalg.SolveLinear(sys, rhs)
	if err != nil {
		return nil, fmt.Errorf("qbd: boundary solve failed: %w", err)
	}

	sol := &Solution{R: r}
	sol.Boundary = make([][]float64, mpl+1)
	for n := 0; n <= mpl; n++ {
		sol.Boundary[n] = make([]float64, n+1)
		for n1 := 0; n1 <= n; n1++ {
			v := x[offset[n]+n1]
			if v < 0 {
				// Tiny negative values can appear from round-off; clamp
				// but reject grossly negative solutions.
				if v < -1e-8 {
					return nil, fmt.Errorf("qbd: negative boundary probability %v at (%d,%d)", v, n, n1)
				}
				v = 0
			}
			sol.Boundary[n][n1] = v
		}
	}
	sol.SpectralRadius = spectralRadius(r)

	// E[N] = Σ_{n<mpl} n·|π_n| + π_mpl·[mpl·(I−R)⁻¹ + R·(I−R)⁻²]·1.
	for n := 0; n < mpl; n++ {
		for _, v := range sol.Boundary[n] {
			sol.MeanJobs += float64(n) * v
		}
	}
	piM := sol.Boundary[mpl]
	term1 := iMinusRInv.Scale(float64(mpl)).MulVec(ones)
	term2 := r.Mul(iMinusRInv).Mul(iMinusRInv).MulVec(ones)
	for i, v := range piM {
		sol.MeanJobs += v * (term1[i] + term2[i])
	}
	if math.IsNaN(sol.MeanJobs) || sol.MeanJobs < 0 {
		return nil, fmt.Errorf("qbd: invalid mean population %v", sol.MeanJobs)
	}
	sol.MeanRT = sol.MeanJobs / m.Lambda
	return sol, nil
}

// spectralRadius estimates the dominant eigenvalue magnitude of a
// non-negative matrix by power iteration.
func spectralRadius(m *linalg.Matrix) float64 {
	v := make([]float64, m.Cols)
	for i := range v {
		v[i] = 1
	}
	radius := 0.0
	for iter := 0; iter < 2000; iter++ {
		w := m.MulVec(v)
		norm := 0.0
		for _, x := range w {
			if a := math.Abs(x); a > norm {
				norm = a
			}
		}
		if norm == 0 {
			return 0
		}
		for i := range w {
			w[i] /= norm
		}
		if math.Abs(norm-radius) < 1e-13 {
			return norm
		}
		radius = norm
		v = w
	}
	return radius
}

// MinMPLForResponseTime returns the smallest MPL in [1, maxMPL] whose
// mean response time is within (1+tolerance) of the PS limit
// E[S]/(1−ρ). This is the response-time analogue of
// mva.MinMPLForFraction and the controller's second jump-start input.
// Returns maxMPL+1 if none suffices.
//
// Mean response time is monotone non-increasing in the MPL for this
// chain (a larger service pool dominates pathwise), so binary search
// applies; the linear scan variant below is kept as a cross-check.
func MinMPLForResponseTime(lambda float64, job dist.H2, tolerance float64, maxMPL int) (int, error) {
	rho := lambda * job.Mean()
	if rho >= 1 {
		return 0, fmt.Errorf("qbd: unstable system, rho = %v", rho)
	}
	psRT := job.Mean() / (1 - rho)
	target := psRT * (1 + tolerance)
	rt := func(mpl int) (float64, error) {
		sol, err := Solve(Model{Lambda: lambda, Job: job, MPL: mpl})
		if err != nil {
			return 0, err
		}
		return sol.MeanRT, nil
	}
	// Gallop upward (1, 2, 4, ...) to bracket the threshold — cheap
	// solves first, since Solve cost grows with the MPL — then binary
	// search inside the bracket.
	lo := 1
	hi := 1
	for {
		v, err := rt(hi)
		if err != nil {
			return 0, err
		}
		if v <= target {
			break
		}
		lo = hi + 1
		if hi >= maxMPL {
			return maxMPL + 1, nil
		}
		hi *= 2
		if hi > maxMPL {
			hi = maxMPL
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		v, err := rt(mid)
		if err != nil {
			return 0, err
		}
		if v <= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}
