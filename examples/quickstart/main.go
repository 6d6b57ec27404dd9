// Quickstart: simulate the paper's recommended scheduler
// (DynamicOuter2Phases with the analysis-tuned threshold) on a
// heterogeneous platform and compare its communication volume with the
// lower bound and with the naive random scheduler.
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
		n    = 100 // blocks per vector (the outer product has n² tasks)
		p    = 20  // processors
		seed = 42
	)

	root := rng.New(seed)

	// A heterogeneous platform: speeds uniform in [10, 100], the
	// paper's default (a 10x speed spread).
	s := speeds.UniformRange(p, 10, 100, root.Split())
	rs := speeds.Relative(s)

	// The communication lower bound: every processor must at least
	// receive the half-perimeter of a square proportional to its
	// speed.
	lb := analysis.LowerBoundOuter(rs, n)
	fmt.Printf("platform: %d processors, %d×%d tasks, lower bound %.0f blocks\n\n", p, n, n, lb)

	// Tune the two-phase threshold analytically: beta* minimizes the
	// predicted volume; the scheduler switches to random allocation
	// when e^(−beta*)·n² tasks remain.
	beta, predicted := analysis.OptimalBetaOuter(rs, n)
	threshold := outer.Kernel.ThresholdFromBeta(beta, n)
	fmt.Printf("analysis: beta* = %.3f → switch threshold %d tasks, predicted ratio %.3f\n\n", beta, threshold, predicted)

	// Simulate the recommended scheduler and the naive baseline.
	two := sim.Run(flat.NewTwoPhases(outer.Kernel, n, p, threshold, root.Split()), speeds.NewFixed(s))
	rnd := sim.Run(flat.NewRandom(outer.Kernel, n, p, root.Split()), speeds.NewFixed(s))

	fmt.Printf("%-22s %10s %12s\n", "strategy", "blocks", "vs bound")
	fmt.Printf("%-22s %10d %12.3f\n", "DynamicOuter2Phases", two.Blocks, float64(two.Blocks)/lb)
	fmt.Printf("%-22s %10d %12.3f\n", "RandomOuter", rnd.Blocks, float64(rnd.Blocks)/lb)
	fmt.Printf("\nthe data-aware two-phase scheduler ships %.1fx less data\n",
		float64(rnd.Blocks)/float64(two.Blocks))
}
