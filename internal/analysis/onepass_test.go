package analysis

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hetsched/internal/rng"
	"hetsched/internal/speeds"
)

// The two-pass phase volumes and ratios the one-pass bodies replaced,
// kept verbatim as the reference the optimisers must match bit for bit.

func refPhase1VolumeOuter(beta float64, rs []float64, n int) float64 {
	sum := 0.0
	for _, r := range rs {
		sum += XOuter(beta, r)
	}
	return 2 * float64(n) * sum
}

func refPhase2VolumeOuter(beta float64, rs []float64, n int) float64 {
	sum := 0.0
	for _, r := range rs {
		x := XOuter(beta, r)
		sum += r * 2 / (1 + x)
	}
	return math.Exp(-beta) * float64(n) * float64(n) * sum
}

func refRatioOuter(beta float64, rs []float64, n int) float64 {
	lb := LowerBoundOuter(rs, n)
	return (refPhase1VolumeOuter(beta, rs, n) + refPhase2VolumeOuter(beta, rs, n)) / lb
}

func refPhase1VolumeMatrix(beta float64, rs []float64, n int) float64 {
	sum := 0.0
	for _, r := range rs {
		x := XMatrix(beta, r)
		sum += x * x
	}
	return 3 * float64(n) * float64(n) * sum
}

func refPhase2VolumeMatrix(beta float64, rs []float64, n int) float64 {
	sum := 0.0
	for _, r := range rs {
		x := XMatrix(beta, r)
		sum += r * 3 * (1 - x*x/(1+x+x*x))
	}
	n3 := float64(n) * float64(n) * float64(n)
	return math.Exp(-beta) * n3 * sum
}

func refRatioMatrix(beta float64, rs []float64, n int) float64 {
	lb := LowerBoundMatrix(rs, n)
	return (refPhase1VolumeMatrix(beta, rs, n) + refPhase2VolumeMatrix(beta, rs, n)) / lb
}

func refRefinedPhase2VolumeOuter(beta float64, rs []float64, n int) float64 {
	total := 0.0
	nf := float64(n)
	for _, r := range rs {
		x0 := XOuter(beta, r)
		tk := math.Exp(-beta) * nf * nf * r
		c := x0 + x0*x0/2 + tk/nf
		x := -1 + math.Sqrt(1+2*c)
		if x > 1 {
			x = 1
		}
		if x < x0 {
			x = x0
		}
		total += 2 * nf * (x - x0)
	}
	return total
}

func refRefinedRatioOuter(beta float64, rs []float64, n int) float64 {
	lb := LowerBoundOuter(rs, n)
	return (refPhase1VolumeOuter(beta, rs, n) + refRefinedPhase2VolumeOuter(beta, rs, n)) / lb
}

// The homogeneous ratios as they were before their volume bodies were
// split out, kept verbatim as the reference.

func refRatioOuterHomogeneous(beta float64, p, n int) float64 {
	pf := float64(p)
	x := XOuter(beta, 1/pf)
	v1 := 2 * float64(n) * pf * x
	v2 := math.Exp(-beta) * float64(n) * float64(n) * 2 / (1 + x)
	lb := 2 * float64(n) * pf * math.Sqrt(1/pf)
	return (v1 + v2) / lb
}

func refRatioMatrixHomogeneous(beta float64, p, n int) float64 {
	pf := float64(p)
	x := XMatrix(beta, 1/pf)
	n2 := float64(n) * float64(n)
	v1 := 3 * n2 * pf * x * x
	v2 := math.Exp(-beta) * n2 * float64(n) * 3 * (1 - x*x/(1+x+x*x))
	lb := 3 * n2 * pf * math.Pow(1/pf, 2.0/3.0)
	return (v1 + v2) / lb
}

// refMinimize is the optimiser the grid search replaced, kept verbatim
// as the reference: all 401 grid points, then golden-section
// refinement.
func refMinimize(f func(float64) float64) (argmin, min float64) {
	const coarse = 400
	bestX, bestY := betaLo, f(betaLo)
	for i := 1; i <= coarse; i++ {
		x := betaLo + (betaHi-betaLo)*float64(i)/coarse
		if y := f(x); y < bestY {
			bestX, bestY = x, y
		}
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

// volumeFunc is a volume body: (inc, dec) at β for a platform, with
// inc nondecreasing and dec nonincreasing in β.
type volumeFunc func(beta float64, rs []float64, n int) (inc, dec float64)

// onePassCases pairs each optimiser with its reference ratio, its
// volume body and its lower bound, and each public volume with its
// reference body. The homogeneous optimisers read only p = len(rs).
var onePassCases = []struct {
	name    string
	opt     func(rs []float64, n int) (float64, float64)
	ref     func(beta float64, rs []float64, n int) float64
	vol     volumeFunc
	lb      func(rs []float64, n int) float64
	volumes [][2]func(beta float64, rs []float64, n int) float64
}{
	{
		name: "outer", opt: OptimalBetaOuter, ref: refRatioOuter, vol: outerVolumes, lb: LowerBoundOuter,
		volumes: [][2]func(float64, []float64, int) float64{
			{Phase1VolumeOuter, refPhase1VolumeOuter},
			{Phase2VolumeOuter, refPhase2VolumeOuter},
			{RatioOuter, refRatioOuter},
		},
	},
	{
		name: "matmul", opt: OptimalBetaMatrix, ref: refRatioMatrix, vol: matrixVolumes, lb: LowerBoundMatrix,
		volumes: [][2]func(float64, []float64, int) float64{
			{Phase1VolumeMatrix, refPhase1VolumeMatrix},
			{Phase2VolumeMatrix, refPhase2VolumeMatrix},
			{RatioMatrix, refRatioMatrix},
		},
	},
	{
		name: "refined", opt: OptimalBetaOuterRefined, ref: refRefinedRatioOuter, vol: refinedOuterVolumes, lb: LowerBoundOuter,
		volumes: [][2]func(float64, []float64, int) float64{
			{RefinedPhase2VolumeOuter, refRefinedPhase2VolumeOuter},
			{RefinedRatioOuter, refRefinedRatioOuter},
		},
	},
	{
		name: "outer-homogeneous",
		opt:  func(rs []float64, n int) (float64, float64) { return OptimalBetaOuterHomogeneous(len(rs), n) },
		ref:  func(b float64, rs []float64, n int) float64 { return refRatioOuterHomogeneous(b, len(rs), n) },
		vol:  func(b float64, rs []float64, n int) (float64, float64) { return outerVolumesHomogeneous(b, len(rs), n) },
		lb:   func(rs []float64, n int) float64 { return lowerBoundOuterHomogeneous(len(rs), n) },
		volumes: [][2]func(float64, []float64, int) float64{{
			func(b float64, rs []float64, n int) float64 { return RatioOuterHomogeneous(b, len(rs), n) },
			func(b float64, rs []float64, n int) float64 { return refRatioOuterHomogeneous(b, len(rs), n) },
		}},
	},
	{
		name: "matmul-homogeneous",
		opt:  func(rs []float64, n int) (float64, float64) { return OptimalBetaMatrixHomogeneous(len(rs), n) },
		ref:  func(b float64, rs []float64, n int) float64 { return refRatioMatrixHomogeneous(b, len(rs), n) },
		vol: func(b float64, rs []float64, n int) (float64, float64) {
			return matrixVolumesHomogeneous(b, len(rs), n)
		},
		lb: func(rs []float64, n int) float64 { return lowerBoundMatrixHomogeneous(len(rs), n) },
		volumes: [][2]func(float64, []float64, int) float64{{
			func(b float64, rs []float64, n int) float64 { return RatioMatrixHomogeneous(b, len(rs), n) },
			func(b float64, rs []float64, n int) float64 { return refRatioMatrixHomogeneous(b, len(rs), n) },
		}},
	},
}

// samplePlatforms draws count platforms from seed: p ≤ 300 and
// n ≤ 2000, with p=1 first, every tenth homogeneous and every tenth
// at n ≤ 10, where the optimum sits at an end of [betaLo, betaHi].
func samplePlatforms(count int, seed uint64, each func(i int, rs []float64, n int)) {
	r := rng.New(seed)
	for i := 0; i < count; i++ {
		p, n := 1+r.Intn(300), 1+r.Intn(2000)
		var rs []float64
		switch {
		case i == 0:
			rs = speeds.Homogeneous(1)
		case i%10 == 1:
			rs = speeds.Homogeneous(p)
		default:
			rs = speeds.Relative(speeds.UniformRange(p, 10, 100, r))
		}
		if i%10 == 2 {
			n = 1 + n%10
		}
		each(i, rs, n)
	}
}

// TestOptimalBetaOnePassMatchesReference holds every optimiser to the
// full 401-point scan over the reference bodies with ==, not a
// tolerance: the β a two-phase strategy switches at, and so every
// schedule, depends on the last bit. The sample must reach betaLo,
// where n ≤ 10 puts the optimum (p=1 puts outer's and matmul's at
// betaHi).
func TestOptimalBetaOnePassMatchesReference(t *testing.T) {
	const step = (betaHi - betaLo) / 400
	for _, c := range onePassCases {
		t.Run(c.name, func(t *testing.T) {
			atLo := 0
			r := rng.New(29)
			samplePlatforms(300, 28, func(i int, rs []float64, n int) {
				label := fmt.Sprintf("platform %d (p=%d n=%d)", i, len(rs), n)
				wantB, wantR := refMinimize(func(b float64) float64 { return c.ref(b, rs, n) })
				gotB, gotR := c.opt(rs, n)
				if gotB != wantB || gotR != wantR {
					t.Fatalf("%s: (β, ratio) = (%v, %v), reference (%v, %v)", label, gotB, gotR, wantB, wantR)
				}
				if gotB < betaLo+step {
					atLo++
				}
				beta := r.UniformRange(betaLo, betaHi)
				for k, v := range c.volumes {
					if got, want := v[0](beta, rs, n), v[1](beta, rs, n); got != want {
						t.Fatalf("%s: volume %d at β=%v = %v, reference %v", label, k, beta, got, want)
					}
				}
			})
			if atLo == 0 {
				t.Error("no optimum within a grid step of betaLo; the sample must reach that end")
			}
		})
	}
}

// TestVolumesMonotoneInBeta checks the premise of minimize's bound:
// on random platforms, inc never falls and dec never rises as β climbs
// the grid and between random points, beyond the rounding minimize's
// margin allows for.
func TestVolumesMonotoneInBeta(t *testing.T) {
	const tol = 1.0 / (1 << 21) // half of minimize's margin
	for _, c := range onePassCases {
		t.Run(c.name, func(t *testing.T) {
			r := rng.New(30)
			samplePlatforms(200, 31, func(i int, rs []float64, n int) {
				betas := make([]float64, 0, 501)
				for k := 0; k <= 400; k++ {
					betas = append(betas, betaLo+(betaHi-betaLo)*float64(k)/400)
				}
				for range 100 {
					betas = append(betas, r.UniformRange(betaLo, betaHi))
				}
				slices.Sort(betas)
				prevInc, prevDec := c.vol(betas[0], rs, n)
				for _, b := range betas[1:] {
					inc, dec := c.vol(b, rs, n)
					if inc < prevInc*(1-tol) || dec > prevDec*(1+tol) {
						t.Fatalf("platform %d (p=%d n=%d) at β=%v: (inc, dec) = (%v, %v) after (%v, %v)", i, len(rs), n, b, inc, dec, prevInc, prevDec)
					}
					prevInc, prevDec = inc, dec
				}
			})
		})
	}
}

// TestMinimizeEvaluations counts the volume evaluations one
// optimisation makes: never more than the full scan's 447 (401 grid
// points, 45 golden-section points, the midpoint), and at most 120 on
// average.
func TestMinimizeEvaluations(t *testing.T) {
	const full, meanMax = 447, 120
	for _, c := range onePassCases {
		t.Run(c.name, func(t *testing.T) {
			total, count := 0, 0
			samplePlatforms(300, 32, func(i int, rs []float64, n int) {
				evals := 0
				minimize(func(b float64) (float64, float64) {
					evals++
					return c.vol(b, rs, n)
				}, c.lb(rs, n))
				if evals > full {
					t.Errorf("platform %d (p=%d n=%d): %d evaluations, more than %d", i, len(rs), n, evals, full)
				}
				total += evals
				count++
			})
			if mean := float64(total) / float64(count); mean > meanMax {
				t.Errorf("%.1f evaluations per optimisation on average, want at most %d", mean, meanMax)
			}
			t.Logf("%.1f evaluations per optimisation", float64(total)/float64(count))
		})
	}
}

// BenchmarkOptimalBeta prices one β optimisation per kernel on a
// p=100 paper platform.
func BenchmarkOptimalBeta(b *testing.B) {
	rs := paperPlatform(100, 1)
	for _, c := range onePassCases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.opt(rs, 100)
			}
		})
	}
}
