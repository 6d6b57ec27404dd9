package analysis

import (
	"fmt"
	"math"
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

// onePassCases pairs each optimiser with its two-pass reference ratio,
// and each public volume with its reference body.
var onePassCases = []struct {
	name    string
	opt     func(rs []float64, n int) (float64, float64)
	ref     func(beta float64, rs []float64, n int) float64
	volumes [][2]func(beta float64, rs []float64, n int) float64
}{
	{
		name: "outer", opt: OptimalBetaOuter, ref: refRatioOuter,
		volumes: [][2]func(float64, []float64, int) float64{
			{Phase1VolumeOuter, refPhase1VolumeOuter},
			{Phase2VolumeOuter, refPhase2VolumeOuter},
			{RatioOuter, refRatioOuter},
		},
	},
	{
		name: "matmul", opt: OptimalBetaMatrix, ref: refRatioMatrix,
		volumes: [][2]func(float64, []float64, int) float64{
			{Phase1VolumeMatrix, refPhase1VolumeMatrix},
			{Phase2VolumeMatrix, refPhase2VolumeMatrix},
			{RatioMatrix, refRatioMatrix},
		},
	},
	{
		name: "refined", opt: OptimalBetaOuterRefined, ref: refRefinedRatioOuter,
		volumes: [][2]func(float64, []float64, int) float64{
			{RefinedPhase2VolumeOuter, refRefinedPhase2VolumeOuter},
			{RefinedRatioOuter, refRefinedRatioOuter},
		},
	},
}

// TestOptimalBetaOnePassMatchesReference holds the one-pass optimisers
// to the two-pass ones with ==, not a tolerance: the β a two-phase
// strategy switches at, and so every schedule, depends on the last bit.
// Platforms are random (p ≤ 300, n ≤ 2000), with p=1 and homogeneous
// ones among them.
func TestOptimalBetaOnePassMatchesReference(t *testing.T) {
	const platforms = 300
	r := rng.New(28)
	for _, c := range onePassCases {
		t.Run(c.name, func(t *testing.T) {
			for i := 0; i < platforms; i++ {
				p, n := 1+r.Intn(300), 1+r.Intn(2000)
				var rs []float64
				switch {
				case i == 0:
					p, rs = 1, speeds.Homogeneous(1)
				case i%10 == 1:
					rs = speeds.Homogeneous(p)
				default:
					rs = speeds.Relative(speeds.UniformRange(p, 10, 100, r))
				}
				label := fmt.Sprintf("platform %d (p=%d n=%d)", i, p, n)
				wantB, wantR := minimize(func(b float64) float64 { return c.ref(b, rs, n) })
				gotB, gotR := c.opt(rs, n)
				if gotB != wantB || gotR != wantR {
					t.Fatalf("%s: (β, ratio) = (%v, %v), reference (%v, %v)", label, gotB, gotR, wantB, wantR)
				}
				beta := r.UniformRange(betaLo, betaHi)
				for k, v := range c.volumes {
					if got, want := v[0](beta, rs, n), v[1](beta, rs, n); got != want {
						t.Fatalf("%s: volume %d at β=%v = %v, reference %v", label, k, beta, got, want)
					}
				}
			}
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
