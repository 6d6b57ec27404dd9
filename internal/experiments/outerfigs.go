package experiments

import (
	"fmt"

	"hetsched/internal/analysis"
	"hetsched/internal/core"
	"hetsched/internal/flat"
	"hetsched/internal/outer"
	"hetsched/internal/plot"
	"hetsched/internal/rng"
	"hetsched/internal/speeds"
)

// outerPs is the processor grid of Figs 1, 4 and 5.
func outerPs(cfg Config) []int {
	if cfg.Quick {
		return []int{25, 50, 100}
	}
	return []int{25, 50, 100, 150, 200, 250, 300}
}

func outerN(cfg Config, n int) int {
	if cfg.Quick && n > 50 {
		return 50
	}
	return n
}

// Fig1 compares the random and data-aware dynamic strategies for
// vectors of n=100 blocks (paper Figure 1).
func Fig1(cfg Config) *plot.Result {
	return pSweepFigure(cfg, "fig1",
		"outer product: random vs data-aware strategies (n=100)",
		outer.Kernel, outerN(cfg, 100), outerPs(cfg),
		[]strategyID{stDynamic, stRandom, stSorted},
		cfg.reps(10), false)
}

// Fig4 adds DynamicOuter2Phases and the analysis prediction (paper
// Figure 4, n=100).
func Fig4(cfg Config) *plot.Result {
	return pSweepFigure(cfg, "fig4",
		"outer product: all strategies and analysis (n=100)",
		outer.Kernel, outerN(cfg, 100), outerPs(cfg),
		[]strategyID{stTwoPhases, stDynamic, stRandom, stSorted},
		cfg.reps(10), true)
}

// Fig5 is Fig4 with ten times larger vectors (paper Figure 5,
// n=1000).
func Fig5(cfg Config) *plot.Result {
	n := 1000
	if cfg.Quick {
		n = 200
	}
	return pSweepFigure(cfg, "fig5",
		"outer product: all strategies and analysis (n=1000)",
		outer.Kernel, n, outerPs(cfg),
		[]strategyID{stTwoPhases, stDynamic, stRandom, stSorted},
		cfg.reps(10), true)
}

// Fig2 sweeps the fraction of tasks handled in phase 1 of
// DynamicOuter2Phases for a fixed platform of 20 processors and
// n=100 blocks (paper Figure 2). The pure strategies appear as
// horizontal reference lines.
func Fig2(cfg Config) *plot.Result {
	root := cfg.figSeed("fig2")
	n := outerN(cfg, 100)
	p := 20
	reps := cfg.reps(10)

	// One fixed arbitrary speed distribution, as in the paper.
	init := defaultPlatform.gen(p, root.Split())
	rs := speeds.Relative(init)
	lb := analysis.LowerBoundOuter(rs, n)

	fracs := []float64{0, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80,
		0.85, 0.90, 0.925, 0.95, 0.97, 0.98, 0.985, 0.99, 0.995, 1.0}
	if cfg.Quick {
		fracs = []float64{0, 0.25, 0.50, 0.75, 0.90, 0.97, 0.99, 1.0}
	}

	res := &plot.Result{
		ID:     "fig2",
		Title:  fmt.Sprintf("outer product: two-phase threshold sweep (p=%d, n=%d)", p, n),
		XLabel: "% tasks in phase 1",
		YLabel: "normalized communication",
	}

	pl := cfg.pool()
	twoFuts := make([]*rep[float64], len(fracs))
	for i, frac := range fracs {
		twoFuts[i] = measureNorm(pl, reps, root, init, lb, func(r *rng.PCG) core.Scheduler {
			return flat.NewTwoPhases(outer.Kernel, n, p, outer.Kernel.ThresholdFromPhase1Fraction(frac, n), r)
		})
	}
	// Reference lines for the pure strategies on the same platform.
	refSts := []strategyID{stDynamic, stSorted, stRandom}
	refFuts := make([]*rep[float64], len(refSts))
	for i, st := range refSts {
		refFuts[i] = measureNorm(pl, reps, root, init, lb, func(r *rng.PCG) core.Scheduler {
			return st.scheduler(outer.Kernel, n, p, 0, r)
		})
	}

	twoPhase := plot.Series{Name: "DynamicOuter2Phases"}
	for i, frac := range fracs {
		s := summarize(twoFuts[i].Wait())
		twoPhase.Points = append(twoPhase.Points, plot.Point{X: frac * 100, Y: s.Mean, StdDev: s.StdDev})
	}
	res.Series = append(res.Series, twoPhase)
	for i, st := range refSts {
		s := summarize(refFuts[i].Wait())
		ref := plot.Series{Name: st.name(outer.Kernel)}
		for _, frac := range fracs {
			ref.Points = append(ref.Points, plot.Point{X: frac * 100, Y: s.Mean, StdDev: s.StdDev})
		}
		res.Series = append(res.Series, ref)
	}

	beta, _ := analysis.OptimalBetaOuter(rs, n)
	thr := outer.Kernel.ThresholdFromBeta(beta, n)
	optFrac := 100 * (1 - float64(thr)/float64(n*n))
	res.Notes = append(res.Notes,
		fmt.Sprintf("analysis optimum: beta*=%.3f, i.e. %.1f%% of tasks in phase 1", beta, optFrac))
	return res
}

// Fig6 sweeps β for DynamicOuter2Phases against the analysis
// prediction on a fixed platform of 20 processors (paper Figure 6).
func Fig6(cfg Config) *plot.Result {
	n, p := outerN(cfg, 100), 20
	var betas []float64
	for b := 1.0; b <= 9.0+1e-9; b += 0.25 {
		betas = append(betas, b)
	}
	if cfg.Quick {
		betas = []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	}
	res, rs := betaSweepFigure(cfg, "fig6", "outer product: communication vs beta", outer.Kernel, n, p, betas)

	betaStar, _ := analysis.OptimalBetaOuter(rs, n)
	betaHom, _ := analysis.OptimalBetaOuter(speeds.Homogeneous(p), n)
	res.Notes = append(res.Notes,
		fmt.Sprintf("analysis minimizer beta*=%.4f (paper: 4.17); homogeneous approximation beta_hom=%.4f", betaStar, betaHom))
	return res
}

// Fig7 sweeps the heterogeneity degree h (speeds uniform in
// [100−h, 100+h]) for 20 processors and n=100 blocks (paper
// Figure 7).
func Fig7(cfg Config) *plot.Result {
	root := cfg.figSeed("fig7")
	n := outerN(cfg, 100)
	p := 20
	reps := cfg.reps(50)

	hs := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 99}
	if cfg.Quick {
		hs = []float64{0, 50, 99}
	}

	res := &plot.Result{
		ID:     "fig7",
		Title:  fmt.Sprintf("outer product: heterogeneity sweep (p=%d, n=%d)", p, n),
		XLabel: "heterogeneity h",
		YLabel: "normalized communication",
	}

	sts := []strategyID{stTwoPhases, stDynamic, stRandom, stSorted}
	series := map[strategyID]*plot.Series{}
	for _, st := range sts {
		series[st] = &plot.Series{Name: st.name(outer.Kernel)}
	}
	anaSeries := &plot.Series{Name: "Analysis"}

	pl := cfg.pool()
	futs := make([]*rep[sweepOut], len(hs))
	for i, h := range hs {
		spec := platformSpec{
			name: fmt.Sprintf("unif[%g,%g]", 100-h, 100+h),
			gen:  func(p int, r *rng.PCG) []float64 { return speeds.Heterogeneity(p, h, r) },
		}
		futs[i] = sweepStrategiesAsync(pl, outer.Kernel, sts, n, p, reps, spec, root, true)
	}
	for i, h := range hs {
		sums, ana := finishSweep(sts, futs[i], true)
		for _, st := range sts {
			series[st].Points = append(series[st].Points, plot.Point{X: h, Y: sums[st].Mean, StdDev: sums[st].StdDev})
		}
		anaSeries.Points = append(anaSeries.Points, plot.Point{X: h, Y: ana.Mean, StdDev: ana.StdDev})
	}

	res.Series = []plot.Series{*anaSeries}
	for _, st := range sts {
		res.Series = append(res.Series, *series[st])
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d replications per point; h=0 is homogeneous", reps))
	return res
}

// Fig8 compares heterogeneity scenarios unif.1, unif.2, set.3, set.5,
// dyn.5 and dyn.20 for 20 processors and n=100 blocks (paper
// Figure 8).
func Fig8(cfg Config) *plot.Result {
	root := cfg.figSeed("fig8")
	n := outerN(cfg, 100)
	p := 20
	reps := cfg.reps(50)

	scenarios := []platformSpec{
		{
			name: "unif.1",
			gen:  func(p int, r *rng.PCG) []float64 { return speeds.UniformRange(p, 80, 120, r) },
		},
		{
			name: "unif.2",
			gen:  func(p int, r *rng.PCG) []float64 { return speeds.UniformRange(p, 50, 150, r) },
		},
		{
			name: "set.3",
			gen:  func(p int, r *rng.PCG) []float64 { return speeds.FromSet(p, []float64{80, 100, 150}, r) },
		},
		{
			name: "set.5",
			gen:  func(p int, r *rng.PCG) []float64 { return speeds.FromSet(p, []float64{40, 80, 100, 150, 200}, r) },
		},
		{
			name: "dyn.5",
			gen:  func(p int, r *rng.PCG) []float64 { return speeds.UniformRange(p, 80, 120, r) },
			dyn: func(init []float64, r *rng.PCG) speeds.Model {
				return speeds.NewDrift(init, 0.05, r)
			},
		},
		{
			name: "dyn.20",
			gen:  func(p int, r *rng.PCG) []float64 { return speeds.UniformRange(p, 80, 120, r) },
			dyn: func(init []float64, r *rng.PCG) speeds.Model {
				return speeds.NewDrift(init, 0.20, r)
			},
		},
	}
	if cfg.Quick {
		scenarios = scenarios[:3]
	}

	res := &plot.Result{
		ID:     "fig8",
		Title:  fmt.Sprintf("outer product: heterogeneity scenarios (p=%d, n=%d)", p, n),
		XLabel: "scenario",
		YLabel: "normalized communication",
		XTicks: map[float64]string{},
	}

	sts := []strategyID{stTwoPhases, stDynamic, stRandom, stSorted}
	series := map[strategyID]*plot.Series{}
	for _, st := range sts {
		series[st] = &plot.Series{Name: st.name(outer.Kernel)}
	}
	anaSeries := &plot.Series{Name: "Analysis"}

	pl := cfg.pool()
	futs := make([]*rep[sweepOut], len(scenarios))
	for idx, spec := range scenarios {
		futs[idx] = sweepStrategiesAsync(pl, outer.Kernel, sts, n, p, reps, spec, root, true)
	}
	for idx, spec := range scenarios {
		x := float64(idx)
		res.XTicks[x] = spec.name
		sums, ana := finishSweep(sts, futs[idx], true)
		for _, st := range sts {
			series[st].Points = append(series[st].Points, plot.Point{X: x, Y: sums[st].Mean, StdDev: sums[st].StdDev})
		}
		anaSeries.Points = append(anaSeries.Points, plot.Point{X: x, Y: ana.Mean, StdDev: ana.StdDev})
	}

	res.Series = []plot.Series{*anaSeries}
	for _, st := range sts {
		res.Series = append(res.Series, *series[st])
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d replications per scenario", reps))
	return res
}
