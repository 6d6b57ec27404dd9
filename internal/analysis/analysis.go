// Package analysis implements the paper's theoretical model (§3.3 and
// §4.2): the closed-form solutions of the mean-field ODEs describing
// the data-aware dynamic strategies, the communication lower bounds,
// the predicted communication volumes of the two-phase strategies as a
// function of the switch parameter β, and the numerical optimization
// of β.
//
// Conventions. All sizes are counted in blocks: n = N/l is the number
// of blocks per vector/matrix dimension, so the outer product has n²
// tasks and the matrix product n³. rs is the relative-speed vector
// rs_k = s_k/Σs_i. α_k = Σ_{i≠k} s_i / s_k = (1−rs_k)/rs_k.
//
// The HAL preprint contains a few dimensional typos (N where n² or n³
// is meant, a dropped factor in the matrix phase-2 volume); this
// package implements the dimensionally consistent forms, which the
// simulations in package experiments validate. The paper's literal
// first-order expressions are also provided for comparison.
package analysis

import (
	"fmt"
	"math"
)

// Alpha returns α_k = (1−rs_k)/rs_k for a relative speed rs_k.
func Alpha(rsk float64) float64 {
	if rsk <= 0 || rsk > 1 {
		panic(fmt.Sprintf("analysis: relative speed %g out of (0,1]", rsk))
	}
	return (1 - rsk) / rsk
}

// --- Outer product (§3.3) ---------------------------------------------

// GOuter is Lemma 1: the fraction of unprocessed tasks in the L-shaped
// region of processor k when it knows a fraction x of the blocks,
// g_k(x) = (1−x²)^α_k.
func GOuter(x, alpha float64) float64 {
	checkX(x)
	return math.Pow(1-x*x, alpha)
}

// TOuterScaled is Lemma 2 up to the Σs_i factor: t_k(x)·Σs_i =
// n²·(1−(1−x²)^(α_k+1)). It returns the right-hand side.
func TOuterScaled(x, alpha float64, n int) float64 {
	checkX(x)
	return float64(n) * float64(n) * (1 - math.Pow(1-x*x, alpha+1))
}

// LowerBoundOuter is the paper's communication lower bound for the
// outer product, LB = 2n·Σ_k √rs_k blocks (each processor receives at
// least the half-perimeter of a square of area rs_k·n²).
func LowerBoundOuter(rs []float64, n int) float64 {
	sum := 0.0
	for _, r := range rs {
		sum += math.Sqrt(r)
	}
	return 2 * float64(n) * sum
}

// XOuter is the phase-switch ownership fraction of processor k. The
// paper takes x_k² = β·rs_k − (β²/2)·rs_k² (Lemma 3), the second-order
// expansion of the exact inversion of Lemma 2 at the common switch
// time t·Σs = n²(1−e^(−β)):
//
//	(1−x_k²)^(α_k+1) = e^(−β)  ⇒  x_k = √(1 − e^(−β·rs_k)),
//
// using α_k+1 = 1/rs_k. We evaluate the exact form, which agrees with
// the paper's expansion to O((β·rs_k)³) and stays monotone in β (the
// quadratic collapses for β·rs_k > 2, which matters on small
// platforms). XOuterQuadratic exposes the paper's literal expression.
func XOuter(beta, rsk float64) float64 {
	return math.Sqrt(1 - math.Exp(-beta*rsk))
}

// XOuterQuadratic is the paper's literal second-order switch fraction
// x_k = √(β·rs_k − (β²/2)·rs_k²), clamped to [0, 1].
func XOuterQuadratic(beta, rsk float64) float64 {
	v := beta*rsk - beta*beta/2*rsk*rsk
	if v <= 0 {
		return 0
	}
	x := math.Sqrt(v)
	if x > 1 {
		return 1
	}
	return x
}

// Phase1VolumeOuter is the expected phase-1 communication volume:
// every processor has received 2·x_k·n blocks when the switch occurs,
// so V₁ = 2n·Σ_k x_k (exact-sum version of Lemma 4).
func Phase1VolumeOuter(beta float64, rs []float64, n int) float64 {
	v1, _ := outerVolumes(beta, rs, n)
	return v1
}

// Phase2VolumeOuter is the expected phase-2 communication volume: the
// e^(−β)·n² remaining tasks are split proportionally to speeds, and a
// random unprocessed task costs processor k an expected 2/(1+x_k)
// blocks (Lemma 5's exact per-processor form):
// V₂ = e^(−β)·n²·Σ_k rs_k·2/(1+x_k).
func Phase2VolumeOuter(beta float64, rs []float64, n int) float64 {
	_, v2 := outerVolumes(beta, rs, n)
	return v2
}

// outerVolumes is (Phase1VolumeOuter, Phase2VolumeOuter) in one pass
// over rs: x_k is evaluated once per worker, and each phase keeps its
// own sum, added in worker order.
func outerVolumes(beta float64, rs []float64, n int) (v1, v2 float64) {
	var s1, s2 float64
	for _, r := range rs {
		x := XOuter(beta, r)
		s1 += x
		s2 += r * 2 / (1 + x)
	}
	nf := float64(n)
	return 2 * nf * s1, math.Exp(-beta) * nf * nf * s2
}

// RatioOuter is the predicted total communication volume of
// DynamicOuter2Phases normalized by the lower bound, as a function of
// β (the exact-sum version of Theorem 6).
func RatioOuter(beta float64, rs []float64, n int) float64 {
	v1, v2 := outerVolumes(beta, rs, n)
	return (v1 + v2) / LowerBoundOuter(rs, n)
}

// PaperRatioOuter is the literal first-order expression of Theorem 6
// (with the dimensional typo fixed: the phase-2 term scales with n,
// not n²):
//
//	√β − β^(3/2)·Σrs^(3/2)/(4Σ√rs) + e^(−β)·n·(1−√β·Σrs^(3/2))/Σ√rs.
//
// The paper prints the middle term with a plus sign (it states an
// upper bound); the actual first-order expansion has a minus.
func PaperRatioOuter(beta float64, rs []float64, n int) float64 {
	var s12, s32 float64
	for _, r := range rs {
		s12 += math.Sqrt(r)
		s32 += r * math.Sqrt(r)
	}
	sb := math.Sqrt(beta)
	return sb - beta*sb*s32/(4*s12) + math.Exp(-beta)*float64(n)*(1-sb*s32)/s12
}

// OptimalBetaOuter minimizes RatioOuter over β and returns the
// minimizer and the minimum normalized volume. Each β costs one pass
// over rs; the lower bound does not depend on β and is computed once.
func OptimalBetaOuter(rs []float64, n int) (beta, ratio float64) {
	return minimize(func(b float64) (float64, float64) { return outerVolumes(b, rs, n) }, LowerBoundOuter(rs, n))
}

// RatioOuterHomogeneous is RatioOuter on the homogeneous p-worker
// platform (rs_k = 1/p for every k) computed in O(1) instead of O(p):
// the three per-worker sums have identical terms, so V₁ = 2n·p·x,
// V₂ = e^(−β)·n²·2/(1+x) (the Σrs factor collapses to 1), and
// LB = 2n·p·√(1/p).
func RatioOuterHomogeneous(beta float64, p, n int) float64 {
	v1, v2 := outerVolumesHomogeneous(beta, p, n)
	return (v1 + v2) / lowerBoundOuterHomogeneous(p, n)
}

// outerVolumesHomogeneous is (V₁, V₂) of RatioOuterHomogeneous.
func outerVolumesHomogeneous(beta float64, p, n int) (v1, v2 float64) {
	pf := float64(p)
	x := XOuter(beta, 1/pf)
	return 2 * float64(n) * pf * x, math.Exp(-beta) * float64(n) * float64(n) * 2 / (1 + x)
}

func lowerBoundOuterHomogeneous(p, n int) float64 {
	pf := float64(p)
	return 2 * float64(n) * pf * math.Sqrt(1/pf)
}

// OptimalBetaOuterHomogeneous is
// OptimalBetaOuter(speeds.Homogeneous(p), n) without materializing or
// scanning a p-length speed vector — the §3.6 speed-agnostic optimum
// the service evaluates on every run-creation, which must stay cheap
// for million-worker fleets.
func OptimalBetaOuterHomogeneous(p, n int) (beta, ratio float64) {
	return minimize(func(b float64) (float64, float64) { return outerVolumesHomogeneous(b, p, n) }, lowerBoundOuterHomogeneous(p, n))
}

// SwitchFraction returns e^(−β), the fraction of tasks still
// unprocessed when the two-phase strategies switch to random
// allocation (both kernels use the same form: e^(−β)·n² outer tasks,
// e^(−β)·n³ matrix tasks).
func SwitchFraction(beta float64) float64 {
	return math.Exp(-beta)
}

// --- Matrix multiplication (§4.2) --------------------------------------

// GMatrix is Lemma 7: g_k(x) = (1−x³)^α_k.
func GMatrix(x, alpha float64) float64 {
	checkX(x)
	return math.Pow(1-x*x*x, alpha)
}

// TMatrixScaled is Lemma 8 with the dimensional typo fixed:
// t_k(x)·Σs_i = n³·(1−(1−x³)^(α_k+1)).
func TMatrixScaled(x, alpha float64, n int) float64 {
	checkX(x)
	n3 := float64(n) * float64(n) * float64(n)
	return n3 * (1 - math.Pow(1-x*x*x, alpha+1))
}

// LowerBoundMatrix is the paper's communication lower bound for matrix
// multiplication, LB = 3n²·Σ_k rs_k^(2/3) blocks (each processor owns
// a cube of tasks of volume rs_k·n³ and must receive one face of each
// matrix).
func LowerBoundMatrix(rs []float64, n int) float64 {
	sum := 0.0
	for _, r := range rs {
		sum += math.Pow(r, 2.0/3.0)
	}
	return 3 * float64(n) * float64(n) * sum
}

// XMatrix is the phase-switch ownership fraction for the matrix
// kernel: the exact inversion of Lemma 8 at the common switch time,
// x_k = (1 − e^(−β·rs_k))^(1/3) (see XOuter for why the exact form is
// preferred over the paper's second-order x_k³ = β·rs_k − (β²/2)·rs_k²,
// which XMatrixQuadratic exposes).
func XMatrix(beta, rsk float64) float64 {
	return math.Cbrt(1 - math.Exp(-beta*rsk))
}

// XMatrixQuadratic is the paper's literal second-order switch fraction
// x_k = (β·rs_k − (β²/2)·rs_k²)^(1/3), clamped to [0, 1].
func XMatrixQuadratic(beta, rsk float64) float64 {
	v := beta*rsk - beta*beta/2*rsk*rsk
	if v <= 0 {
		return 0
	}
	x := math.Cbrt(v)
	if x > 1 {
		return 1
	}
	return x
}

// Phase1VolumeMatrix is the expected phase-1 volume: when the switch
// occurs processor k owns an x_k·n × x_k·n square of each of A, B and
// C, so V₁ = 3n²·Σ_k x_k².
func Phase1VolumeMatrix(beta float64, rs []float64, n int) float64 {
	v1, _ := matrixVolumes(beta, rs, n)
	return v1
}

// Phase2VolumeMatrix is the expected phase-2 volume. A random
// unprocessed task (i,j,k) has each of its three blocks known to
// processor k with probability x², but conditioned on the task being
// unprocessed (not all three known, which would imply it was computed
// in phase 1) the expected number of missing blocks is
// 3·(1 − x²/(1+x+x²)); hence
// V₂ = e^(−β)·n³·Σ_k rs_k·3·(1 − x_k²/(1+x_k+x_k²)).
//
// (The paper's §4.2 expression drops both the conditioning and the
// factor 3; the simulation agrees with the form above.)
func Phase2VolumeMatrix(beta float64, rs []float64, n int) float64 {
	_, v2 := matrixVolumes(beta, rs, n)
	return v2
}

// matrixVolumes is (Phase1VolumeMatrix, Phase2VolumeMatrix) in one
// pass over rs, as outerVolumes is for the outer product.
func matrixVolumes(beta float64, rs []float64, n int) (v1, v2 float64) {
	var s1, s2 float64
	for _, r := range rs {
		x := XMatrix(beta, r)
		s1 += x * x
		s2 += r * 3 * (1 - x*x/(1+x+x*x))
	}
	nf := float64(n)
	n3 := nf * nf * nf
	return 3 * nf * nf * s1, math.Exp(-beta) * n3 * s2
}

// RatioMatrix is the predicted total communication volume of
// DynamicMatrix2Phases normalized by the lower bound, as a function of
// β.
func RatioMatrix(beta float64, rs []float64, n int) float64 {
	v1, v2 := matrixVolumes(beta, rs, n)
	return (v1 + v2) / LowerBoundMatrix(rs, n)
}

// PaperRatioMatrix is the literal expression at the end of §4.2 (with
// the phase-2 dimensional factor fixed to n and the missing factor 3
// restored so that both formulas predict the same quantity):
//
//	β^(2/3) − β^(5/3)·Σrs^(5/3)/Σrs^(2/3)
//	  + e^(−β)·n·(1 − β^(2/3)·Σrs^(5/3))/Σrs^(2/3).
func PaperRatioMatrix(beta float64, rs []float64, n int) float64 {
	var s23, s53 float64
	for _, r := range rs {
		s23 += math.Pow(r, 2.0/3.0)
		s53 += math.Pow(r, 5.0/3.0)
	}
	b23 := math.Pow(beta, 2.0/3.0)
	b53 := math.Pow(beta, 5.0/3.0)
	return b23 - b53*s53/s23 + math.Exp(-beta)*float64(n)*(1-b23*s53)/s23
}

// OptimalBetaMatrix minimizes RatioMatrix over β and returns the
// minimizer and the minimum normalized volume, one pass over rs per β
// (see OptimalBetaOuter).
func OptimalBetaMatrix(rs []float64, n int) (beta, ratio float64) {
	return minimize(func(b float64) (float64, float64) { return matrixVolumes(b, rs, n) }, LowerBoundMatrix(rs, n))
}

// RatioMatrixHomogeneous is RatioMatrix on the homogeneous p-worker
// platform in O(1) — see RatioOuterHomogeneous for the collapse.
func RatioMatrixHomogeneous(beta float64, p, n int) float64 {
	v1, v2 := matrixVolumesHomogeneous(beta, p, n)
	return (v1 + v2) / lowerBoundMatrixHomogeneous(p, n)
}

// matrixVolumesHomogeneous is (V₁, V₂) of RatioMatrixHomogeneous.
func matrixVolumesHomogeneous(beta float64, p, n int) (v1, v2 float64) {
	pf := float64(p)
	x := XMatrix(beta, 1/pf)
	n2 := float64(n) * float64(n)
	return 3 * n2 * pf * x * x, math.Exp(-beta) * n2 * float64(n) * 3 * (1 - x*x/(1+x+x*x))
}

func lowerBoundMatrixHomogeneous(p, n int) float64 {
	pf := float64(p)
	n2 := float64(n) * float64(n)
	return 3 * n2 * pf * math.Pow(1/pf, 2.0/3.0)
}

// OptimalBetaMatrixHomogeneous is
// OptimalBetaMatrix(speeds.Homogeneous(p), n) without the p-length
// vector — the matrix kernel's speed-agnostic optimum.
func OptimalBetaMatrixHomogeneous(p, n int) (beta, ratio float64) {
	return minimize(func(b float64) (float64, float64) { return matrixVolumesHomogeneous(b, p, n) }, lowerBoundMatrixHomogeneous(p, n))
}

// --- Refined phase-2 model (extension / ablation) ----------------------

// RefinedPhase2VolumeOuter refines Phase2VolumeOuter by letting the
// ownership fraction keep growing during phase 2 instead of freezing
// it at x_k: processor k handles T_k = e^(−β)·n²·rs_k random tasks;
// while it knows a fraction x of the blocks, each task ships an
// expected 2/(1+x) blocks, raising x by 1/(n(1+x)) per task. The
// resulting volume is 2n·(x_end − x_k) with x_end solving
// n·((x−x_k) + (x²−x_k²)/2) = T_k, clamped at x_end ≤ 1.
func RefinedPhase2VolumeOuter(beta float64, rs []float64, n int) float64 {
	_, v2 := refinedOuterVolumes(beta, rs, n)
	return v2
}

// refinedOuterVolumes is (Phase1VolumeOuter, RefinedPhase2VolumeOuter)
// in one pass over rs.
func refinedOuterVolumes(beta float64, rs []float64, n int) (v1, v2 float64) {
	var s1 float64
	nf := float64(n)
	e := math.Exp(-beta)
	for _, r := range rs {
		x0 := XOuter(beta, r)
		s1 += x0
		tk := e * nf * nf * r
		// Solve (x²/2 + x) − (x0²/2 + x0) = tk/n for x.
		c := x0 + x0*x0/2 + tk/nf
		// x²/2 + x − c = 0 → x = −1 + √(1+2c).
		x := -1 + math.Sqrt(1+2*c)
		if x > 1 {
			x = 1
		}
		if x < x0 {
			x = x0
		}
		v2 += 2 * nf * (x - x0)
	}
	return 2 * nf * s1, v2
}

// RefinedRatioOuter is RatioOuter with the refined phase-2 model.
func RefinedRatioOuter(beta float64, rs []float64, n int) float64 {
	v1, v2 := refinedOuterVolumes(beta, rs, n)
	return (v1 + v2) / LowerBoundOuter(rs, n)
}

// OptimalBetaOuterRefined minimizes RefinedRatioOuter, one pass over rs
// per β (see OptimalBetaOuter).
func OptimalBetaOuterRefined(rs []float64, n int) (beta, ratio float64) {
	return minimize(func(b float64) (float64, float64) { return refinedOuterVolumes(b, rs, n) }, LowerBoundOuter(rs, n))
}

// --- 1D baseline (extension) -------------------------------------------

// Ratio1DOuter predicts the normalized communication volume of the
// one-dimensional row strategy (outer.Dynamic1D): every row block is
// shipped exactly once (n blocks) and every worker that processes at
// least one row ends up holding essentially the whole vector b
// (min(p, n)·n blocks), so V ≈ n·(1 + min(p, n)). The ratio to the
// lower bound therefore grows like √p on balanced platforms — the
// cost of ignoring the 2-dimensional structure.
func Ratio1DOuter(rs []float64, n int) float64 {
	p := len(rs)
	workers := p
	if workers > n {
		workers = n
	}
	v := float64(n) * float64(1+workers)
	return v / LowerBoundOuter(rs, n)
}

// --- shared -----------------------------------------------------------

// betaLo/betaHi bound the search domain for β. The paper reports
// optimal values between 1 and 6.2 over its whole parameter grid;
// [0.02, 16] leaves ample slack on both sides.
const (
	betaLo = 0.02
	betaHi = 16.0
)

// minimize returns the minimizer of f(β) = (inc(β) + dec(β)) / lb over
// [betaLo, betaHi] and the minimum, where vol(β) = (inc, dec). It finds
// the argmin of f over a grid of 401 points, the lowest index on ties,
// then refines it by golden-section search in the two grid steps
// around it; f is unimodal in the domain of interest, and the grid
// keeps the search robust to flat or slightly noisy tails.
//
// The grid argmin is found without evaluating the whole grid. inc is
// nondecreasing in β and dec nonincreasing, for every volume body in
// this package, so between grid points a < b every f(β) is at least
// (inc(a) + dec(b)) / lb. minimize evaluates every stride-th point, then
// bisects only the gaps whose bound could hold a value at or below the
// best found so far; a skipped gap holds none, so the argmin and every
// bit of the result are those of scanning all 401 points.
//
// The bound holds for exact values; the computed ones are off by
// rounding. inc and dec are sums of p nonnegative terms, each a few
// operations good to an ulp or so, and summing p such terms is off by
// at most (p−1)·u relative (u = 2^−53); the final add and divide add
// 2u. So a computed f, and a computed bound, is within ε ≈ (p+c)·u of
// the exact value, and a gap whose computed bound still exceeds the
// best when multiplied by 1−margin ≤ (1−ε)/(1+ε) holds no computed f
// at or below it. margin is 2^−20, so ε may reach 2^−21: p up to 2^31
// with room for the per-term error, including the cancellation in
// 1 − e^(−β·rs_k), which costs log2(1/(β·rs_k)) bits and stays inside
// while rs_k ≥ 10^−8. Near the minimum the bound is loose by far more
// than the margin, so the margin costs almost no evaluations.
func minimize(vol func(beta float64) (inc, dec float64), lb float64) (argmin, min float64) {
	const (
		coarse = 400
		stride = 16
		margin = 1.0 / (1 << 20)
	)
	var inc, dec [coarse + 1]float64
	bestI, bestY := 0, 0.0
	eval := func(i int) {
		inc[i], dec[i] = vol(betaLo + (betaHi-betaLo)*float64(i)/coarse)
		if y := (inc[i] + dec[i]) / lb; i == 0 || y < bestY || y == bestY && i < bestI {
			bestI, bestY = i, y
		}
	}
	type gap struct{ a, b int }
	var gaps [coarse]gap
	open := gaps[:0]
	for i := 0; i <= coarse; i += stride {
		eval(i)
		if i > 0 {
			open = append(open, gap{i - stride, i})
		}
	}
	for len(open) > 0 {
		g := open[len(open)-1]
		open = open[:len(open)-1]
		if g.b-g.a < 2 || (inc[g.a]+dec[g.b])/lb*(1-margin) > bestY {
			continue
		}
		m := (g.a + g.b) / 2
		eval(m)
		open = append(open, gap{g.a, m}, gap{m, g.b})
	}
	bestX := betaLo + (betaHi-betaLo)*float64(bestI)/coarse
	f := func(b float64) float64 {
		i, d := vol(b)
		return (i + d) / lb
	}
	step := (betaHi - betaLo) / coarse
	lo := math.Max(betaLo, bestX-step)
	hi := math.Min(betaHi, bestX+step)
	// Golden-section search.
	const phi = 0.6180339887498949
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := f(c), f(d)
	for i := 0; i < 80 && b-a > 1e-10; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = f(d)
		}
	}
	x := (a + b) / 2
	y := f(x)
	if bestY < y {
		return bestX, bestY
	}
	return x, y
}

func checkX(x float64) {
	if x < 0 || x > 1 {
		panic(fmt.Sprintf("analysis: ownership fraction %g out of [0,1]", x))
	}
}
