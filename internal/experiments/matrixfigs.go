package experiments

import (
	"fmt"

	"hetsched/internal/analysis"
	"hetsched/internal/matmul"
	"hetsched/internal/plot"
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
		matmul.Kernel, n, matrixPs(cfg),
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
		matmul.Kernel, n, matrixPs(cfg),
		[]strategyID{stTwoPhases, stDynamic, stRandom, stSorted},
		cfg.reps(10), true)
}

// Fig11 sweeps β for DynamicMatrix2Phases against the analysis on a
// fixed platform of 100 processors and n=40 blocks (paper Figure 11).
func Fig11(cfg Config) *plot.Result {
	n, p := 40, 100
	if cfg.Quick {
		n = 16
	}
	var betas []float64
	for b := 1.0; b <= 10.0+1e-9; b += 0.5 {
		betas = append(betas, b)
	}
	if cfg.Quick {
		betas = []float64{1, 3, 5, 7, 9}
	}
	res, rs := betaSweepFigure(cfg, "fig11", "matrix multiplication: communication vs beta", matmul.Kernel, n, p, betas)

	betaStar, _ := analysis.OptimalBetaMatrix(rs, n)
	betaHom, _ := analysis.OptimalBetaMatrix(speeds.Homogeneous(p), n)
	thr := matmul.Kernel.ThresholdFromBeta(betaStar, n)
	phase1 := 100 * (1 - float64(thr)/float64(n*n*n))
	res.Notes = append(res.Notes,
		fmt.Sprintf("analysis minimizer beta*=%.4f (paper: 2.95), i.e. %.1f%% of tasks in phase 1 (paper: 94.7%%); beta_hom=%.4f (paper: 2.92)", betaStar, phase1, betaHom))
	return res
}
