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
	"slices"
	"strings"

	"hetsched/internal/core"
	"hetsched/internal/flat"
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

// name is the paper's name for strategy st on k.
func (st strategyID) name(k *flat.Kernel) string {
	switch st {
	case stRandom:
		return "Random" + k.Name
	case stSorted:
		return "Sorted" + k.Name
	case stDynamic:
		return "Dynamic" + k.Name
	}
	return "Dynamic" + k.Name + "2Phases"
}

// scheduler builds k's scheduler for strategy st. Only the two-phase
// strategy reads beta: it switches at the threshold beta gives, the
// analysis β* for the platform in the paper's recommended tuning.
func (st strategyID) scheduler(k *flat.Kernel, n, p int, beta float64, r *rng.PCG) core.Scheduler {
	switch st {
	case stRandom:
		return flat.NewRandom(k, n, p, r)
	case stSorted:
		return flat.NewSorted(k, n, p, r)
	case stDynamic:
		return flat.NewDynamic(k, n, p, r)
	case stTwoPhases:
		return flat.NewTwoPhases(k, n, p, k.ThresholdFromBeta(beta, n), r)
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
func sweepStrategiesAsync(pl *pool, k *flat.Kernel, sts []strategyID, n, p, reps int, spec platformSpec, root *rng.PCG, withAnalysis bool) *rep[sweepOut] {
	return replicate(pl, reps, 1+2*len(sts), root, func(_ int, streams []*rng.PCG) sweepOut {
		init := spec.gen(p, streams[0])
		rs := speeds.Relative(init)
		lb := k.LowerBound(rs, n)
		out := sweepOut{vals: make([]float64, len(sts))}
		// One optimisation gives both the two-phase threshold and
		// the analysis prediction.
		var beta float64
		if withAnalysis || slices.Contains(sts, stTwoPhases) {
			beta, out.ana = k.OptimalBeta(rs, n)
		}
		for si, st := range sts {
			schedRNG, modelRNG := streams[1+2*si], streams[2+2*si]
			sched := st.scheduler(k, n, p, beta, schedRNG)
			m := sim.Run(sched, spec.model(init, modelRNG))
			out.vals[si] = float64(m.Blocks) / lb
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
func pSweepFigure(cfg Config, id, title string, k *flat.Kernel, n int, ps []int, sts []strategyID, reps int, withAnalysis bool) *plot.Result {
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
		s := &plot.Series{Name: st.name(k)}
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
	res.Notes = append(res.Notes, fmt.Sprintf("%s kernel, n=%d blocks, %d replications per point, speeds %s", strings.ToLower(k.Name), n, reps, defaultPlatform.name))
	return res
}

// betaSweepFigure builds the β-sweep figures (Figs 6 and 11): k's
// two-phase strategy at each β against the analysis prediction and the
// data-aware strategy alone, on one fixed platform of p workers. It
// returns the figure and that platform's relative speeds.
func betaSweepFigure(cfg Config, id, title string, k *flat.Kernel, n, p int, betas []float64) (*plot.Result, []float64) {
	root := cfg.figSeed(id)
	reps := cfg.reps(10)

	// One fixed arbitrary speed distribution, as in the paper.
	init := defaultPlatform.gen(p, root.Split())
	rs := speeds.Relative(init)
	lb := k.LowerBound(rs, n)

	res := &plot.Result{
		ID:     id,
		Title:  fmt.Sprintf("%s (p=%d, n=%d)", title, p, n),
		XLabel: "beta",
		YLabel: "normalized communication",
	}

	pl := cfg.pool()
	betaFuts := make([]*rep[float64], len(betas))
	for i, b := range betas {
		betaFuts[i] = measureNorm(pl, reps, root, init, lb, func(r *rng.PCG) core.Scheduler {
			return stTwoPhases.scheduler(k, n, p, b, r)
		})
	}
	dynFut := measureNorm(pl, reps, root, init, lb, func(r *rng.PCG) core.Scheduler {
		return stDynamic.scheduler(k, n, p, 0, r)
	})

	simSeries := plot.Series{Name: stTwoPhases.name(k)}
	anaSeries := plot.Series{Name: "Analysis"}
	for i, b := range betas {
		s := summarize(betaFuts[i].Wait())
		simSeries.Points = append(simSeries.Points, plot.Point{X: b, Y: s.Mean, StdDev: s.StdDev})
		anaSeries.Points = append(anaSeries.Points, plot.Point{X: b, Y: k.Ratio(b, rs, n)})
	}

	dynSeries := plot.Series{Name: stDynamic.name(k)}
	dynSum := summarize(dynFut.Wait())
	for _, b := range betas {
		dynSeries.Points = append(dynSeries.Points, plot.Point{X: b, Y: dynSum.Mean, StdDev: dynSum.StdDev})
	}

	res.Series = []plot.Series{anaSeries, simSeries, dynSeries}
	return res, rs
}
