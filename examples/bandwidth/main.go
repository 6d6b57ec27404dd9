// Bandwidth: what happens when the paper's perfect-overlap assumption
// is dropped? The master gets a single outgoing link of finite
// bandwidth and workers prefetch a small window of assignments. The
// example shows (a) that data-aware scheduling buys real bandwidth
// headroom — it ships less, so it stalls later — and (b) that a small
// prefetch window is enough for good overlap, the observation the
// paper cites from the literature.
package main

import (
	"fmt"
	"math"

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
		seed = 5
	)

	root := rng.New(seed)
	s := speeds.UniformRange(p, 10, 100, root.Split())
	rs := speeds.Relative(s)
	sumS := 0.0
	for _, v := range s {
		sumS += v
	}
	ideal := float64(n*n) / sumS
	beta, _ := analysis.OptimalBetaOuter(rs, n)
	thr := outer.Kernel.ThresholdFromBeta(beta, n)

	fmt.Printf("p=%d, n=%d, ideal makespan %.2f (pure compute)\n\n", p, n, ideal)
	fmt.Println("makespan / ideal with prefetch lookahead 2:")
	fmt.Printf("%12s %22s %14s\n", "bandwidth", "DynamicOuter2Phases", "RandomOuter")
	for _, bw := range []float64{100, 200, 400, 800, math.Inf(1)} {
		two := sim.RunBandwidth(flat.NewTwoPhases(outer.Kernel, n, p, thr, root.Split()), speeds.NewFixed(s), bw, 2)
		rnd := sim.RunBandwidth(flat.NewRandom(outer.Kernel, n, p, root.Split()), speeds.NewFixed(s), bw, 2)
		label := fmt.Sprintf("%g", bw)
		if math.IsInf(bw, 1) {
			label = "∞ (paper)"
		}
		fmt.Printf("%12s %22.3f %14.3f\n", label, two.Makespan/ideal, rnd.Makespan/ideal)
	}

	fmt.Println("\nmakespan / ideal at bandwidth 400, varying prefetch lookahead:")
	fmt.Printf("%12s %22s\n", "lookahead", "DynamicOuter2Phases")
	for _, la := range []int{0, 1, 2, 4} {
		two := sim.RunBandwidth(flat.NewTwoPhases(outer.Kernel, n, p, thr, root.Split()), speeds.NewFixed(s), 400, la)
		fmt.Printf("%12d %22.3f\n", la, two.Makespan/ideal)
	}
	fmt.Println("\na prefetch window of 1–2 assignments already restores the overlap the paper assumes")
}
