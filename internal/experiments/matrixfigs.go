package experiments

import (
	"fmt"

	"hetsched/internal/analysis"
	"hetsched/internal/core"
	"hetsched/internal/flat"
	"hetsched/internal/matmul"
	"hetsched/internal/plot"
	"hetsched/internal/rng"
	"hetsched/internal/speeds"
)

// matrixPs is the processor grid of Figs 9 and 10.
func matrixPs(cfg Config) []int {
	if cfg.Quick {
		return []int{50, 100}
	}
	return []int{50, 100, 150, 200, 250, 300}
}

// Fig9 compares all matrix strategies and the analysis for matrices of
// n=40 blocks, i.e. 64,000 tasks (paper Figure 9).
func Fig9(cfg Config) *plot.Result {
	n := 40
	if cfg.Quick {
		n = 16
	}
	return pSweepFigure(cfg, "fig9",
		"matrix multiplication: all strategies and analysis (n=40)",
		matrixKernel, n, matrixPs(cfg),
		[]strategyID{stTwoPhases, stDynamic, stRandom, stSorted},
		cfg.reps(10), true)
}

// Fig10 is Fig9 with n=100 blocks, i.e. 1,000,000 tasks (paper
// Figure 10).
func Fig10(cfg Config) *plot.Result {
	n := 100
	if cfg.Quick {
		n = 24
	}
	return pSweepFigure(cfg, "fig10",
		"matrix multiplication: all strategies and analysis (n=100)",
		matrixKernel, n, matrixPs(cfg),
		[]strategyID{stTwoPhases, stDynamic, stRandom, stSorted},
		cfg.reps(10), true)
}

// Fig11 sweeps β for DynamicMatrix2Phases against the analysis on a
// fixed platform of 100 processors and n=40 blocks (paper Figure 11).
func Fig11(cfg Config) *plot.Result {
	root := cfg.figSeed("fig11")
	n := 40
	if cfg.Quick {
		n = 16
	}
	p := 100
	reps := cfg.reps(10)

	init := defaultPlatform.gen(p, root.Split())
	rs := speeds.Relative(init)
	lb := analysis.LowerBoundMatrix(rs, n)

	var betas []float64
	for b := 1.0; b <= 10.0+1e-9; b += 0.5 {
		betas = append(betas, b)
	}
	if cfg.Quick {
		betas = []float64{1, 3, 5, 7, 9}
	}

	res := &plot.Result{
		ID:     "fig11",
		Title:  fmt.Sprintf("matrix multiplication: communication vs beta (p=%d, n=%d)", p, n),
		XLabel: "beta",
		YLabel: "normalized communication",
	}

	pl := cfg.pool()
	betaFuts := make([]*rep[float64], len(betas))
	for i, b := range betas {
		betaFuts[i] = measureNorm(pl, reps, root, init, lb, func(r *rng.PCG) core.Scheduler {
			return flat.NewTwoPhases(matmul.Kernel, n, p, matmul.Kernel.ThresholdFromBeta(b, n), r)
		})
	}
	dynFut := measureNorm(pl, reps, root, init, lb, func(r *rng.PCG) core.Scheduler {
		return matmul.NewDynamic(n, p, r)
	})

	simSeries := plot.Series{Name: "DynamicMatrix2Phases"}
	anaSeries := plot.Series{Name: "Analysis"}
	for i, b := range betas {
		s := summarize(betaFuts[i].Wait())
		simSeries.Points = append(simSeries.Points, plot.Point{X: b, Y: s.Mean, StdDev: s.StdDev})
		anaSeries.Points = append(anaSeries.Points, plot.Point{X: b, Y: analysis.RatioMatrix(b, rs, n)})
	}

	dynSeries := plot.Series{Name: "DynamicMatrix"}
	dynSum := summarize(dynFut.Wait())
	for _, b := range betas {
		dynSeries.Points = append(dynSeries.Points, plot.Point{X: b, Y: dynSum.Mean, StdDev: dynSum.StdDev})
	}

	res.Series = []plot.Series{anaSeries, simSeries, dynSeries}

	betaStar, _ := analysis.OptimalBetaMatrix(rs, n)
	betaHom, _ := analysis.OptimalBetaMatrix(speeds.Homogeneous(p), n)
	thr := matmul.Kernel.ThresholdFromBeta(betaStar, n)
	phase1 := 100 * (1 - float64(thr)/float64(n*n*n))
	res.Notes = append(res.Notes,
		fmt.Sprintf("analysis minimizer beta*=%.4f (paper: 2.95), i.e. %.1f%% of tasks in phase 1 (paper: 94.7%%); beta_hom=%.4f (paper: 2.92)", betaStar, phase1, betaHom))
	return res
}
