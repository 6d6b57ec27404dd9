package experiments

import (
	"fmt"
	"math"

	"hetsched/internal/analysis"
	"hetsched/internal/flat"
	"hetsched/internal/outer"
	"hetsched/internal/partition"
	"hetsched/internal/plot"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
	"hetsched/internal/stats"
)

// Robustness is the experiment motivating the whole paper: static
// allocation needs speed estimates, and on unpredictable platforms
// those estimates are wrong. It compares, under increasingly
// misestimated speeds,
//
//   - the static column partition built from the *estimated* speeds
//     (each processor is statically assigned its rectangle of tasks),
//     whose makespan degrades as the real speeds diverge, against
//   - the demand-driven DynamicOuter2Phases scheduler, which never
//     looks at speeds and always finishes near the ideal makespan.
//
// Makespans are normalized by the ideal n²/Σs. The estimated speed of
// each processor is its true speed multiplied by a factor uniform in
// [1/(1+ε), 1+ε].
func Robustness(cfg Config) *plot.Result {
	root := cfg.figSeed("abl-robust")
	n := outerN(cfg, 100)
	p := 20
	reps := cfg.reps(20)

	epsilons := []float64{0, 0.25, 0.5, 1, 2, 4}
	if cfg.Quick {
		epsilons = []float64{0, 1, 4}
	}

	res := &plot.Result{
		ID:     "abl-robust",
		Title:  fmt.Sprintf("makespan under misestimated speeds (p=%d, n=%d)", p, n),
		XLabel: "speed misestimation ε",
		YLabel: "makespan / ideal",
	}

	static := plot.Series{Name: "StaticColumn (estimated speeds)"}
	dynamic := plot.Series{Name: "DynamicOuter2Phases"}

	// Dynamic: speed-agnostic; tuned with the homogeneous β (§3.6) so
	// it uses no speed information at all.
	beta, _ := analysis.OptimalBetaOuter(speeds.Homogeneous(p), n)
	threshold := outer.Kernel.ThresholdFromBeta(beta, n)

	type out struct{ static, dynamic float64 }
	pl := cfg.pool()
	futs := make([]*rep[out], len(epsilons))
	for i, eps := range epsilons {
		futs[i] = replicate(pl, reps, 3, root, func(_ int, streams []*rng.PCG) out {
			trueSpeeds := defaultPlatform.gen(p, streams[0])
			estimated := misestimate(trueSpeeds, eps, streams[1])

			sumTrue := 0.0
			for _, s := range trueSpeeds {
				sumTrue += s
			}
			ideal := float64(n*n) / sumTrue

			// Static: partition the n×n task grid proportionally to
			// the *estimated* speeds; the makespan is then dictated by
			// the slowest-finishing processor at its *true* speed.
			part := partition.Columnwise(speeds.Relative(estimated))
			worst := 0.0
			for _, rect := range part.Rects {
				tasks := rect.W * rect.H * float64(n*n)
				finish := tasks / trueSpeeds[rect.Proc]
				worst = math.Max(worst, finish)
			}

			sched := flat.NewTwoPhases(outer.Kernel, n, p, threshold, streams[2])
			m := sim.Run(sched, speeds.NewFixed(trueSpeeds))
			return out{static: worst / ideal, dynamic: m.Makespan / ideal}
		})
	}
	for i, eps := range epsilons {
		var accS, accD stats.Accumulator
		for _, o := range futs[i].Wait() {
			accS.Add(o.static)
			accD.Add(o.dynamic)
		}
		static.Points = append(static.Points, plot.Point{X: eps, Y: accS.Mean(), StdDev: accS.StdDev()})
		dynamic.Points = append(dynamic.Points, plot.Point{X: eps, Y: accD.Mean(), StdDev: accD.StdDev()})
	}

	res.Series = []plot.Series{dynamic, static}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d replications per point; ε=0 means perfect estimates", reps),
		"static allocation degrades linearly with misestimation; the demand-driven scheduler is unaffected (it never reads speeds)")
	return res
}

// misestimate perturbs each speed by a factor uniform in
// [1/(1+eps), 1+eps] (symmetric in log space so over- and
// under-estimation are equally likely).
func misestimate(trueSpeeds []float64, eps float64, r *rng.PCG) []float64 {
	est := make([]float64, len(trueSpeeds))
	for k, s := range trueSpeeds {
		if eps == 0 {
			est[k] = s
			continue
		}
		lo, hi := math.Log(1/(1+eps)), math.Log(1+eps)
		est[k] = s * math.Exp(r.UniformRange(lo, hi))
	}
	return est
}
