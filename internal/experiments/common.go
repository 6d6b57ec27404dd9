// Package experiments regenerates every figure of the paper's
// evaluation: the workload generators, parameter sweeps, replication
// and normalization live here, one constructor per figure. Each
// experiment returns a plot.Result that the cmd/hpdc14 tool renders as
// a table, a CSV file and an ASCII chart.
//
// Reproducibility: every experiment derives all of its randomness from
// Config.Seed through independent rng streams, so results are
// bit-for-bit reproducible.
package experiments

import (
	"fmt"

	"hetsched/internal/analysis"
	"hetsched/internal/core"
	"hetsched/internal/flat"
	"hetsched/internal/matmul"
	"hetsched/internal/outer"
	"hetsched/internal/plot"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
	"hetsched/internal/stats"
)

// Config parameterizes an experiment run.
type Config struct {
	// Seed is the root seed; every randomized choice derives from it.
	Seed uint64
	// Reps overrides the per-figure default replication count when
	// positive.
	Reps int
	// Quick shrinks problem sizes and replication counts so the whole
	// suite runs in seconds; used by tests and smoke runs. Shapes are
	// preserved, absolute values move slightly.
	Quick bool
	// Workers bounds the goroutines replications run on; 0 means
	// GOMAXPROCS. Results are bit-for-bit identical for every value
	// (see replicate.go), so this is purely a throughput knob.
	Workers int
}

func (c Config) reps(def int) int {
	if c.Reps > 0 {
		return c.Reps
	}
	if c.Quick {
		if def > 3 {
			return 3
		}
	}
	return def
}

// figSeed folds a figure identifier into the root seed so distinct
// figures use distinct streams even with the same Config.
func (c Config) figSeed(id string) *rng.PCG {
	h := uint64(1469598103934665603)
	for _, b := range []byte(id) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return rng.New(c.Seed ^ h)
}

// --- strategy identifiers ----------------------------------------------

type strategyID int

const (
	stRandom strategyID = iota
	stSorted
	stDynamic
	stTwoPhases
)

var strategyNames = map[strategyID]string{
	stRandom:    "Random",
	stSorted:    "Sorted",
	stDynamic:   "Dynamic",
	stTwoPhases: "2Phases",
}

func outerName(st strategyID) string {
	switch st {
	case stRandom:
		return "RandomOuter"
	case stSorted:
		return "SortedOuter"
	case stDynamic:
		return "DynamicOuter"
	default:
		return "DynamicOuter2Phases"
	}
}

func matrixName(st strategyID) string {
	switch st {
	case stRandom:
		return "RandomMatrix"
	case stSorted:
		return "SortedMatrix"
	case stDynamic:
		return "DynamicMatrix"
	default:
		return "DynamicMatrix2Phases"
	}
}

// newOuterScheduler builds an outer scheduler. For the two-phase
// strategy the threshold comes from the analysis β* for the given
// platform (the paper's recommended tuning).
func newOuterScheduler(st strategyID, n, p int, rs []float64, r *rng.PCG) core.Scheduler {
	switch st {
	case stRandom:
		return flat.NewRandom(outer.Kernel, n, p, r)
	case stSorted:
		return flat.NewSorted(outer.Kernel, n, p, r)
	case stDynamic:
		return outer.NewDynamic(n, p, r)
	case stTwoPhases:
		beta, _ := analysis.OptimalBetaOuter(rs, n)
		return flat.NewTwoPhases(outer.Kernel, n, p, outer.Kernel.ThresholdFromBeta(beta, n), r)
	}
	panic("experiments: unknown strategy")
}

// newMatrixScheduler builds a matrix scheduler, mirroring
// newOuterScheduler.
func newMatrixScheduler(st strategyID, n, p int, rs []float64, r *rng.PCG) core.Scheduler {
	switch st {
	case stRandom:
		return flat.NewRandom(matmul.Kernel, n, p, r)
	case stSorted:
		return flat.NewSorted(matmul.Kernel, n, p, r)
	case stDynamic:
		return matmul.NewDynamic(n, p, r)
	case stTwoPhases:
		beta, _ := analysis.OptimalBetaMatrix(rs, n)
		return flat.NewTwoPhases(matmul.Kernel, n, p, matmul.Kernel.ThresholdFromBeta(beta, n), r)
	}
	panic("experiments: unknown strategy")
}

// --- platform specifications -------------------------------------------

// platformSpec describes how replication draws a platform: the initial
// speed vector and, optionally, a dynamic model wrapped around it.
type platformSpec struct {
	name string
	gen  func(p int, r *rng.PCG) []float64
	// dyn wraps the initial speeds in a dynamic model; nil means
	// static speeds.
	dyn func(init []float64, r *rng.PCG) speeds.Model
}

// defaultPlatform is the paper's default: speeds uniform in [10, 100].
var defaultPlatform = platformSpec{
	name: "unif[10,100]",
	gen:  func(p int, r *rng.PCG) []float64 { return speeds.UniformRange(p, 10, 100, r) },
}

func (ps platformSpec) model(init []float64, r *rng.PCG) speeds.Model {
	if ps.dyn == nil {
		return speeds.NewFixed(init)
	}
	return ps.dyn(init, r)
}

// --- replicated measurement ---------------------------------------------

// measurement aggregates one strategy's normalized communication
// volume over replications, plus the matching analysis prediction for
// two-phase strategies.
type measurement struct {
	sim      stats.Accumulator
	analysis stats.Accumulator
}

// kernel abstracts outer vs matrix so the replication loop is written
// once.
type kernel struct {
	name         string
	lowerBound   func(rs []float64, n int) float64
	newScheduler func(st strategyID, n, p int, rs []float64, r *rng.PCG) core.Scheduler
	ratioAtOpt   func(rs []float64, n int) float64
	strategyName func(st strategyID) string
}

var outerKernel = kernel{
	name:         "outer",
	lowerBound:   analysis.LowerBoundOuter,
	newScheduler: newOuterScheduler,
	ratioAtOpt: func(rs []float64, n int) float64 {
		_, ratio := analysis.OptimalBetaOuter(rs, n)
		return ratio
	},
	strategyName: outerName,
}

var matrixKernel = kernel{
	name:         "matrix",
	lowerBound:   analysis.LowerBoundMatrix,
	newScheduler: newMatrixScheduler,
	ratioAtOpt: func(rs []float64, n int) float64 {
		_, ratio := analysis.OptimalBetaMatrix(rs, n)
		return ratio
	},
	strategyName: matrixName,
}

// sweepOut is one replication's contribution to a strategy sweep: the
// normalized communication volume per strategy (indexed like sts) and
// the analysis prediction.
type sweepOut struct {
	vals []float64
	ana  float64
}

// sweepStrategiesAsync schedules the replicated measurement of the
// given strategies (plus the analysis prediction) at one (n, p) point
// on the pool, drawing a fresh platform per replication. Each
// replication consumes 1+2·len(sts) streams in the serial loop's
// order: platform speeds, then scheduler and model per strategy.
func sweepStrategiesAsync(pl *pool, k kernel, sts []strategyID, n, p, reps int, spec platformSpec, root *rng.PCG, withAnalysis bool) *rep[sweepOut] {
	return replicate(pl, reps, 1+2*len(sts), root, func(_ int, streams []*rng.PCG) sweepOut {
		init := spec.gen(p, streams[0])
		rs := speeds.Relative(init)
		lb := k.lowerBound(rs, n)
		out := sweepOut{vals: make([]float64, len(sts))}
		for si, st := range sts {
			schedRNG, modelRNG := streams[1+2*si], streams[2+2*si]
			sched := k.newScheduler(st, n, p, rs, schedRNG)
			m := sim.Run(sched, spec.model(init, modelRNG))
			out.vals[si] = float64(m.Blocks) / lb
		}
		if withAnalysis {
			out.ana = k.ratioAtOpt(rs, n)
		}
		return out
	})
}

// finishSweep folds a sweep future's per-replication results, in
// replication order, into per-strategy summaries.
func finishSweep(sts []strategyID, fut *rep[sweepOut], withAnalysis bool) (map[strategyID]*stats.Summary, stats.Summary) {
	accs := make(map[strategyID]*measurement, len(sts))
	for _, st := range sts {
		accs[st] = &measurement{}
	}
	var ana stats.Accumulator
	for _, o := range fut.Wait() {
		for si, st := range sts {
			accs[st].sim.Add(o.vals[si])
		}
		if withAnalysis {
			ana.Add(o.ana)
		}
	}
	out := make(map[strategyID]*stats.Summary, len(sts))
	for st, acc := range accs {
		s := acc.sim.Summarize()
		out[st] = &s
	}
	return out, ana.Summarize()
}

// pSweepFigure builds the p-sweep figures (Figs 1, 4, 5, 9, 10): one
// series per strategy (and optionally the analysis) over a grid of
// processor counts.
func pSweepFigure(cfg Config, id, title string, k kernel, n int, ps []int, sts []strategyID, reps int, withAnalysis bool) *plot.Result {
	root := cfg.figSeed(id)
	res := &plot.Result{
		ID:     id,
		Title:  title,
		XLabel: "processors",
		YLabel: "normalized communication",
	}
	series := make(map[strategyID]*plot.Series, len(sts))
	order := make([]*plot.Series, 0, len(sts)+1)
	for _, st := range sts {
		s := &plot.Series{Name: k.strategyName(st)}
		series[st] = s
		order = append(order, s)
	}
	var anaSeries *plot.Series
	if withAnalysis {
		anaSeries = &plot.Series{Name: "Analysis"}
		order = append(order, anaSeries)
	}
	// All points' replications are scheduled before any is awaited, so
	// the whole p-sweep fans out across the pool at once; stream
	// derivation in the submission loop keeps the serial draw order.
	pl := cfg.pool()
	futs := make([]*rep[sweepOut], len(ps))
	for i, p := range ps {
		futs[i] = sweepStrategiesAsync(pl, k, sts, n, p, reps, defaultPlatform, root, withAnalysis)
	}
	for i, p := range ps {
		sums, ana := finishSweep(sts, futs[i], withAnalysis)
		for _, st := range sts {
			series[st].Points = append(series[st].Points, plot.Point{
				X: float64(p), Y: sums[st].Mean, StdDev: sums[st].StdDev,
			})
		}
		if withAnalysis {
			anaSeries.Points = append(anaSeries.Points, plot.Point{
				X: float64(p), Y: ana.Mean, StdDev: ana.StdDev,
			})
		}
	}
	for _, s := range order {
		res.Series = append(res.Series, *s)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%s kernel, n=%d blocks, %d replications per point, speeds %s", k.name, n, reps, defaultPlatform.name))
	return res
}
