package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"hetsched/internal/ode"
	"hetsched/internal/rng"
	"hetsched/internal/speeds"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAlpha(t *testing.T) {
	if got := Alpha(0.25); !almost(got, 3, 1e-12) {
		t.Fatalf("Alpha(0.25) = %g, want 3", got)
	}
	if got := Alpha(1); got != 0 {
		t.Fatalf("Alpha(1) = %g, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Alpha(0) did not panic")
		}
	}()
	Alpha(0)
}

func TestGBoundaries(t *testing.T) {
	for _, alpha := range []float64{0.5, 1, 5, 19} {
		if g := GOuter(0, alpha); g != 1 {
			t.Fatalf("GOuter(0) = %g, want 1", g)
		}
		if g := GOuter(1, alpha); g != 0 {
			t.Fatalf("GOuter(1) = %g, want 0", g)
		}
		if g := GMatrix(0, alpha); g != 1 {
			t.Fatalf("GMatrix(0) = %g, want 1", g)
		}
		if g := GMatrix(1, alpha); g != 0 {
			t.Fatalf("GMatrix(1) = %g, want 0", g)
		}
	}
}

func TestGMonotoneDecreasing(t *testing.T) {
	for _, alpha := range []float64{0.5, 3, 10} {
		prevO, prevM := 1.0, 1.0
		for x := 0.01; x < 1; x += 0.01 {
			gO, gM := GOuter(x, alpha), GMatrix(x, alpha)
			if gO > prevO || gM > prevM {
				t.Fatalf("g not monotone decreasing at x=%.2f alpha=%g", x, alpha)
			}
			prevO, prevM = gO, gM
		}
	}
}

// TestClosedFormSolvesODE verifies Lemmas 1 and 7 numerically: the
// closed forms must match RK4 integration of the raw ODEs.
func TestClosedFormSolvesODE(t *testing.T) {
	grid := []float64{0.1, 0.2, 0.3, 0.5, 0.7, 0.9}
	for _, alpha := range []float64{0.5, 1, 4, 19} {
		gO := ode.Solve(ode.OuterRHS(alpha), 0, 1, grid, 2000)
		gM := ode.Solve(ode.MatrixRHS(alpha), 0, 1, grid, 2000)
		for i, x := range grid {
			if want := GOuter(x, alpha); !almost(gO[i], want, 1e-6*math.Max(1, want)) {
				t.Fatalf("outer ODE at x=%.1f alpha=%g: RK4 %g vs closed form %g", x, alpha, gO[i], want)
			}
			if want := GMatrix(x, alpha); !almost(gM[i], want, 1e-6*math.Max(1, want)) {
				t.Fatalf("matrix ODE at x=%.1f alpha=%g: RK4 %g vs closed form %g", x, alpha, gM[i], want)
			}
		}
	}
}

func TestTScaledBoundaries(t *testing.T) {
	const n = 100
	if v := TOuterScaled(0, 3, n); v != 0 {
		t.Fatalf("TOuterScaled(0) = %g", v)
	}
	if v := TOuterScaled(1, 3, n); !almost(v, float64(n*n), 1e-9) {
		t.Fatalf("TOuterScaled(1) = %g, want n²", v)
	}
	if v := TMatrixScaled(1, 3, n); !almost(v, float64(n*n*n), 1e-3) {
		t.Fatalf("TMatrixScaled(1) = %g, want n³", v)
	}
}

func TestLowerBounds(t *testing.T) {
	rs := []float64{0.25, 0.25, 0.25, 0.25}
	// Outer: 2n·4·0.5 = 4n.
	if lb := LowerBoundOuter(rs, 100); !almost(lb, 400, 1e-9) {
		t.Fatalf("LowerBoundOuter = %g, want 400", lb)
	}
	// Matrix: 3n²·4·0.25^(2/3).
	want := 3.0 * 100 * 100 * 4 * math.Pow(0.25, 2.0/3.0)
	if lb := LowerBoundMatrix(rs, 100); !almost(lb, want, 1e-6) {
		t.Fatalf("LowerBoundMatrix = %g, want %g", lb, want)
	}
}

func TestXExactMatchesQuadraticForSmallBetaRs(t *testing.T) {
	// The exact switch fraction agrees with the paper's second-order
	// expansion when β·rs is small.
	for _, rs := range []float64{0.001, 0.005, 0.02} {
		for _, beta := range []float64{1.0, 3.0, 6.0} {
			exact, quad := XOuter(beta, rs), XOuterQuadratic(beta, rs)
			if !almost(exact, quad, 0.02*exact+1e-9) {
				t.Fatalf("outer x mismatch at beta=%g rs=%g: %g vs %g", beta, rs, exact, quad)
			}
			exactM, quadM := XMatrix(beta, rs), XMatrixQuadratic(beta, rs)
			if !almost(exactM, quadM, 0.02*exactM+1e-9) {
				t.Fatalf("matrix x mismatch at beta=%g rs=%g: %g vs %g", beta, rs, exactM, quadM)
			}
		}
	}
}

func TestXMonotoneInBeta(t *testing.T) {
	for _, rs := range []float64{0.01, 0.1, 0.5} {
		prevO, prevM := -1.0, -1.0
		for beta := 0.1; beta < 20; beta += 0.1 {
			xO, xM := XOuter(beta, rs), XMatrix(beta, rs)
			if xO < prevO || xM < prevM {
				t.Fatalf("x not monotone in beta at rs=%g beta=%g", rs, beta)
			}
			if xO < 0 || xO > 1 || xM < 0 || xM > 1 {
				t.Fatalf("x out of [0,1] at rs=%g beta=%g", rs, beta)
			}
			prevO, prevM = xO, xM
		}
	}
}

func paperPlatform(p int, seed uint64) []float64 {
	r := rng.New(seed)
	return speeds.Relative(speeds.UniformRange(p, 10, 100, r))
}

func TestOptimalBetaOuterInPaperRange(t *testing.T) {
	// The paper reports β* between 1 and 6.2 over p ∈ [10, 1000] and
	// n ∈ [max(10, √p), 1000], and ≈4.17 at p=20, n=100.
	rs := paperPlatform(20, 1)
	beta, ratio := OptimalBetaOuter(rs, 100)
	if beta < 3.5 || beta > 5.5 {
		t.Fatalf("beta* = %g for p=20 n=100, expected ≈4.2–4.5", beta)
	}
	if ratio < 1 || ratio > 3 {
		t.Fatalf("predicted ratio %g out of plausible range", ratio)
	}
	for _, cfg := range []struct{ p, n int }{{10, 10}, {100, 100}, {1000, 1000}, {50, 500}} {
		rs := paperPlatform(cfg.p, uint64(cfg.p*cfg.n))
		beta, _ := OptimalBetaOuter(rs, cfg.n)
		if beta < 0.5 || beta > 10 {
			t.Fatalf("beta* = %g for p=%d n=%d, outside the paper's reported range", beta, cfg.p, cfg.n)
		}
	}
}

func TestOptimalBetaMatrixNearPaperValue(t *testing.T) {
	// Paper: β* ≈ 2.95 at p=100, n=40 (94.7% of tasks in phase 1).
	rs := paperPlatform(100, 2)
	beta, _ := OptimalBetaMatrix(rs, 40)
	if beta < 2.3 || beta > 3.7 {
		t.Fatalf("matrix beta* = %g for p=100 n=40, paper reports ≈2.95", beta)
	}
	phase1 := 1 - math.Exp(-beta)
	if phase1 < 0.90 || phase1 > 0.98 {
		t.Fatalf("phase-1 fraction %.3f, paper reports ≈0.947", phase1)
	}
}

func TestRatioAtOptimumBeatsNeighbours(t *testing.T) {
	rs := paperPlatform(20, 3)
	n := 100
	beta, ratio := OptimalBetaOuter(rs, n)
	for _, off := range []float64{-1, -0.5, 0.5, 1} {
		if other := RatioOuter(beta+off, rs, n); other < ratio-1e-9 {
			t.Fatalf("RatioOuter(beta*+%g) = %g beats optimum %g", off, other, ratio)
		}
	}
	betaM, ratioM := OptimalBetaMatrix(rs, n)
	for _, off := range []float64{-1, -0.5, 0.5, 1} {
		if other := RatioMatrix(betaM+off, rs, n); other < ratioM-1e-9 {
			t.Fatalf("RatioMatrix(beta*+%g) = %g beats optimum %g", off, other, ratioM)
		}
	}
}

func TestHomogeneousBetaCloseToHeterogeneous(t *testing.T) {
	// §3.6: tuning on a homogeneous platform with the same (p, n) is
	// within ~5% of the per-platform optimum, and the volume penalty
	// is tiny.
	for seed := uint64(0); seed < 5; seed++ {
		p, n := 20, 100
		rs := paperPlatform(p, 100+seed)
		bStar, rStar := OptimalBetaOuter(rs, n)
		bHom, _ := OptimalBetaOuter(speeds.Homogeneous(p), n)
		if math.Abs(bHom-bStar)/bStar > 0.08 {
			t.Fatalf("beta_hom %g deviates from beta* %g by more than 8%%", bHom, bStar)
		}
		penalty := (RatioOuter(bHom, rs, n) - rStar) / rStar
		if penalty > 0.005 {
			t.Fatalf("volume penalty of homogeneous tuning is %.4f%%, paper reports ≤0.1%%", penalty*100)
		}
	}
}

func TestPaperFirstOrderAgreesInDomainOfInterest(t *testing.T) {
	// For 3 ≤ β ≤ 6 and the paper's platform sizes the literal
	// first-order formulas should track the exact sums within a few
	// percent.
	rs := paperPlatform(100, 4)
	n := 100
	for beta := 3.0; beta <= 6.0; beta += 0.5 {
		exact, paper := RatioOuter(beta, rs, n), PaperRatioOuter(beta, rs, n)
		if math.Abs(exact-paper)/exact > 0.05 {
			t.Fatalf("outer first-order formula off by %.1f%% at beta=%g (%g vs %g)",
				100*math.Abs(exact-paper)/exact, beta, paper, exact)
		}
		exactM, paperM := RatioMatrix(beta, rs, n), PaperRatioMatrix(beta, rs, n)
		if math.Abs(exactM-paperM)/exactM > 0.08 {
			t.Fatalf("matrix first-order formula off by %.1f%% at beta=%g (%g vs %g)",
				100*math.Abs(exactM-paperM)/exactM, beta, paperM, exactM)
		}
	}
}

func TestVolumesPositiveAndPhase2Vanishes(t *testing.T) {
	rs := paperPlatform(50, 5)
	n := 200
	for _, beta := range []float64{0.5, 2, 5, 10} {
		v1, v2 := Phase1VolumeOuter(beta, rs, n), Phase2VolumeOuter(beta, rs, n)
		if v1 <= 0 || v2 < 0 {
			t.Fatalf("non-positive volumes v1=%g v2=%g at beta=%g", v1, v2, beta)
		}
	}
	// Phase-2 volume must vanish as beta grows.
	if v := Phase2VolumeOuter(20, rs, n); v > 1 {
		t.Fatalf("phase-2 volume %g at beta=20, want ≈0", v)
	}
	if v := Phase2VolumeMatrix(20, rs, n); v > float64(n) {
		t.Fatalf("matrix phase-2 volume %g at beta=20, want ≈0", v)
	}
}

func TestRefinedPhase2AtMostFrozen(t *testing.T) {
	// Letting ownership accumulate during phase 2 can only reduce the
	// predicted communication.
	rs := paperPlatform(20, 6)
	n := 100
	for beta := 0.5; beta <= 8; beta += 0.5 {
		frozen := Phase2VolumeOuter(beta, rs, n)
		refined := RefinedPhase2VolumeOuter(beta, rs, n)
		if refined > frozen*1.0001 {
			t.Fatalf("refined phase-2 volume %g exceeds frozen %g at beta=%g", refined, frozen, beta)
		}
	}
	// And the two agree when phase 2 is tiny.
	f, r := Phase2VolumeOuter(8, rs, n), RefinedPhase2VolumeOuter(8, rs, n)
	if math.Abs(f-r)/f > 0.10 {
		t.Fatalf("frozen %g and refined %g diverge at beta=8", f, r)
	}
}

func TestRatioQuickProperties(t *testing.T) {
	f := func(seed uint64, pRaw, nRaw uint8, betaRaw uint16) bool {
		p := int(pRaw%64) + 2
		n := int(nRaw%200) + 10
		beta := 0.1 + float64(betaRaw%100)/10
		rs := paperPlatform(p, seed)
		ro := RatioOuter(beta, rs, n)
		rm := RatioMatrix(beta, rs, n)
		return ro > 0 && rm > 0 && !math.IsNaN(ro) && !math.IsNaN(rm) &&
			!math.IsInf(ro, 0) && !math.IsInf(rm, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
