// Betatuning: the paper's headline result in miniature — the ODE
// analysis predicts the communication volume of the two-phase
// scheduler well enough to pick the switch threshold β analytically,
// and the threshold can even be tuned while staying agnostic to
// processor speeds (§3.6).
//
// The example sweeps β by simulation, prints the analytic prediction
// side by side, and shows that the analytic minimizer lands in the
// simulated optimum's flat region.
package main

import (
	"fmt"

	"hetsched/internal/analysis"
	"hetsched/internal/flat"
	"hetsched/internal/outer"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

func main() {
	const (
		n    = 100
		p    = 20
		reps = 5
		seed = 7
	)

	root := rng.New(seed)
	s := speeds.UniformRange(p, 10, 100, root.Split())
	rs := speeds.Relative(s)
	lb := analysis.LowerBoundOuter(rs, n)

	fmt.Printf("%6s %12s %12s\n", "beta", "analysis", "simulated")
	bestSim, bestSimBeta := 1e18, 0.0
	for b := 2.0; b <= 7.0+1e-9; b += 0.5 {
		mean := 0.0
		for rep := 0; rep < reps; rep++ {
			sched := flat.NewTwoPhases(outer.Kernel, n, p, outer.Kernel.ThresholdFromBeta(b, n), root.Split())
			m := sim.Run(sched, speeds.NewFixed(s))
			mean += float64(m.Blocks) / lb
		}
		mean /= reps
		if mean < bestSim {
			bestSim, bestSimBeta = mean, b
		}
		fmt.Printf("%6.2f %12.3f %12.3f\n", b, analysis.RatioOuter(b, rs, n), mean)
	}

	betaStar, predicted := analysis.OptimalBetaOuter(rs, n)
	betaHom, _ := analysis.OptimalBetaOuter(speeds.Homogeneous(p), n)
	fmt.Printf("\nanalysis minimizer     beta* = %.4f (predicted ratio %.3f)\n", betaStar, predicted)
	fmt.Printf("speed-agnostic tuning  beta_hom = %.4f (homogeneous platform, §3.6)\n", betaHom)
	fmt.Printf("simulation optimum     beta ≈ %.2f (ratio %.3f)\n", bestSimBeta, bestSim)
	fmt.Printf("\nthe switch happens when e^(−beta*)·n² ≈ %d of the %d tasks remain\n",
		outer.Kernel.ThresholdFromBeta(betaStar, n), n*n)
}
