// Heterogeneity: Fig. 7 in miniature — the ranking of the scheduling
// strategies, and the accuracy of the analysis, are insensitive to how
// heterogeneous the platform is. Speeds are drawn uniformly from
// [100−h, 100+h] for increasing h; h = 0 is a homogeneous platform.
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
		reps = 10
		seed = 11
	)

	root := rng.New(seed)
	fmt.Printf("%6s %10s %10s %10s %10s\n", "h", "2Phases", "Dynamic", "Random", "Analysis")
	for _, h := range []float64{0, 25, 50, 75, 99} {
		var two, dyn, rnd, ana float64
		for rep := 0; rep < reps; rep++ {
			s := speeds.Heterogeneity(p, h, root.Split())
			rs := speeds.Relative(s)
			lb := analysis.LowerBoundOuter(rs, n)

			beta, predicted := analysis.OptimalBetaOuter(rs, n)
			m2 := sim.Run(flat.NewTwoPhases(outer.Kernel, n, p, outer.Kernel.ThresholdFromBeta(beta, n), root.Split()), speeds.NewFixed(s))
			md := sim.Run(outer.NewDynamic(n, p, root.Split()), speeds.NewFixed(s))
			mr := sim.Run(flat.NewRandom(outer.Kernel, n, p, root.Split()), speeds.NewFixed(s))

			two += float64(m2.Blocks) / lb
			dyn += float64(md.Blocks) / lb
			rnd += float64(mr.Blocks) / lb
			ana += predicted
		}
		fmt.Printf("%6.0f %10.3f %10.3f %10.3f %10.3f\n",
			h, two/reps, dyn/reps, rnd/reps, ana/reps)
	}
	fmt.Println("\nranking (2Phases < Dynamic < Random) is stable across heterogeneity degrees")
}
