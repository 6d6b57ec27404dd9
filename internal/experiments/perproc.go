package experiments

import (
	"fmt"
	"math"

	"hetsched/internal/analysis"
	"hetsched/internal/flat"
	"hetsched/internal/outer"
	"hetsched/internal/plot"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
	"hetsched/internal/stats"
)

// PerProcessor tests the analysis at a finer grain than any figure in
// the paper: Lemma 3 predicts that when DynamicOuter2Phases switches
// phases, processor k has received 2·x_k·n blocks with
// x_k = √(1−e^(−β·rs_k)); adding the phase-2 expectation
// e^(−β)·n²·rs_k·2/(1+x_k) yields a per-processor communication
// prediction. This experiment plots predicted vs simulated blocks per
// processor (sorted by relative speed) and reports the worst relative
// error — aggregate agreement (Figs 4/5) could in principle hide
// compensating per-processor errors; this shows it does not.
func PerProcessor(cfg Config) *plot.Result {
	root := cfg.figSeed("abl-perproc")
	n := outerN(cfg, 100)
	if !cfg.Quick {
		n = 300 // larger n sharpens the per-processor law
	}
	p := 20
	reps := cfg.reps(20)

	init := defaultPlatform.gen(p, root.Split())
	rs := speeds.Relative(init)
	beta, _ := analysis.OptimalBetaOuter(rs, n)

	// Sort processors by relative speed for a readable x axis.
	order := make([]int, p)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if rs[order[j]] < rs[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}

	fut := replicate(cfg.pool(), reps, 1, root, func(_ int, streams []*rng.PCG) []int {
		sched := flat.NewTwoPhases(outer.Kernel, n, p, outer.Kernel.ThresholdFromBeta(beta, n), streams[0])
		m := sim.Run(sched, speeds.NewFixed(init))
		return m.BlocksPer
	})
	accs := make([]stats.Accumulator, p)
	for _, blocksPer := range fut.Wait() {
		for k := 0; k < p; k++ {
			accs[k].Add(float64(blocksPer[k]))
		}
	}

	res := &plot.Result{
		ID:     "abl-perproc",
		Title:  fmt.Sprintf("per-processor communication: prediction vs simulation (p=%d, n=%d, beta*=%.2f)", p, n, beta),
		XLabel: "processor rank by relative speed",
		YLabel: "blocks received",
	}
	simSeries := plot.Series{Name: "simulated"}
	predSeries := plot.Series{Name: "predicted"}
	lbSeries := plot.Series{Name: "lower bound 2n*sqrt(rs)"}

	worst := 0.0
	for rank, k := range order {
		x := float64(rank)
		got := accs[k].Mean()
		xk := analysis.XOuter(beta, rs[k])
		pred := 2*xk*float64(n) + math.Exp(-beta)*float64(n)*float64(n)*rs[k]*2/(1+xk)
		simSeries.Points = append(simSeries.Points, plot.Point{X: x, Y: got, StdDev: accs[k].StdDev()})
		predSeries.Points = append(predSeries.Points, plot.Point{X: x, Y: pred})
		lbSeries.Points = append(lbSeries.Points, plot.Point{X: x, Y: 2 * float64(n) * math.Sqrt(rs[k])})
		if rel := math.Abs(got-pred) / got; rel > worst {
			worst = rel
		}
	}
	res.Series = []plot.Series{simSeries, predSeries, lbSeries}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d replications; worst per-processor relative error of the prediction: %.2f%%", reps, 100*worst))
	return res
}
