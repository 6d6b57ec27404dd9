package experiments

import (
	"fmt"

	"hetsched/internal/analysis"
	"hetsched/internal/core"
	"hetsched/internal/flat"
	"hetsched/internal/outer"
	"hetsched/internal/partition"
	"hetsched/internal/plot"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
	"hetsched/internal/stats"
)

// AblationStatic is an extension experiment: it compares the paper's
// dynamic two-phase scheduler against the fully static column-based
// partition baseline (§3.2's comparison point, the 7/4-approximation
// of Beaumont et al. [2]) over the usual processor sweep. The static
// baseline knows all speeds exactly and pays no end-game penalty, so
// it is the natural "upper bound on achievable" for speed-aware static
// allocation — but it breaks down as soon as speeds are misestimated,
// which is the paper's motivation for dynamic strategies.
func AblationStatic(cfg Config) *plot.Result {
	root := cfg.figSeed("abl-static")
	n := outerN(cfg, 100)
	reps := cfg.reps(10)
	ps := outerPs(cfg)

	res := &plot.Result{
		ID:     "abl-static",
		Title:  fmt.Sprintf("outer product: dynamic two-phase vs static 7/4 partition (n=%d)", n),
		XLabel: "processors",
		YLabel: "normalized communication",
	}

	twoPhases := plot.Series{Name: "DynamicOuter2Phases"}
	staticDiscrete := plot.Series{Name: "StaticColumn (blocks)"}
	staticCont := plot.Series{Name: "StaticColumn (continuous)"}
	anaSeries := plot.Series{Name: "Analysis"}

	type out struct{ dyn, static, cont, ana float64 }
	pl := cfg.pool()
	futs := make([]*rep[out], len(ps))
	for i, p := range ps {
		futs[i] = replicate(pl, reps, 2, root, func(_ int, streams []*rng.PCG) out {
			init := defaultPlatform.gen(p, streams[0])
			rs := speeds.Relative(init)
			lb := analysis.LowerBoundOuter(rs, n)

			beta, ratio := analysis.OptimalBetaOuter(rs, n)
			sched := flat.NewTwoPhases(outer.Kernel, n, p, outer.Kernel.ThresholdFromBeta(beta, n), streams[1])
			m := sim.Run(sched, speeds.NewFixed(init))

			part := partition.Columnwise(rs)
			return out{
				dyn:    float64(m.Blocks) / lb,
				static: float64(partition.DiscreteComm(part, n)) / lb,
				// Continuous cost is in unit-square units; scale to
				// blocks (×n) for the same normalization.
				cont: part.Cost * float64(n) / lb,
				ana:  ratio,
			}
		})
	}
	for i, p := range ps {
		var accDyn, accStatic, accCont, accAna stats.Accumulator
		for _, o := range futs[i].Wait() {
			accDyn.Add(o.dyn)
			accAna.Add(o.ana)
			accStatic.Add(o.static)
			accCont.Add(o.cont)
		}
		x := float64(p)
		twoPhases.Points = append(twoPhases.Points, plot.Point{X: x, Y: accDyn.Mean(), StdDev: accDyn.StdDev()})
		staticDiscrete.Points = append(staticDiscrete.Points, plot.Point{X: x, Y: accStatic.Mean(), StdDev: accStatic.StdDev()})
		staticCont.Points = append(staticCont.Points, plot.Point{X: x, Y: accCont.Mean(), StdDev: accCont.StdDev()})
		anaSeries.Points = append(anaSeries.Points, plot.Point{X: x, Y: accAna.Mean(), StdDev: accAna.StdDev()})
	}

	res.Series = []plot.Series{anaSeries, twoPhases, staticDiscrete, staticCont}
	res.Notes = append(res.Notes,
		"the static baseline requires exact speed knowledge; the 7/4 theorem bounds its continuous cost by 1.75",
		fmt.Sprintf("%d replications per point", reps))
	return res
}

// AblationPhase2 is an extension experiment: it compares the paper's
// phase-2 model (ownership frozen at the switch value x_k) against the
// refined model where ownership keeps accumulating during phase 2,
// side by side with the simulation, over a β sweep (the Fig 6 setup).
// The refined model matters for small β (long phase 2) and converges
// to the paper's model as β grows.
func AblationPhase2(cfg Config) *plot.Result {
	root := cfg.figSeed("abl-phase2")
	n := outerN(cfg, 100)
	p := 20
	reps := cfg.reps(10)

	init := defaultPlatform.gen(p, root.Split())
	rs := speeds.Relative(init)
	lb := analysis.LowerBoundOuter(rs, n)

	var betas []float64
	for b := 0.5; b <= 9.0+1e-9; b += 0.5 {
		betas = append(betas, b)
	}
	if cfg.Quick {
		betas = []float64{0.5, 2, 4, 6, 8}
	}

	res := &plot.Result{
		ID:     "abl-phase2",
		Title:  fmt.Sprintf("outer product: frozen vs accumulating phase-2 model (p=%d, n=%d)", p, n),
		XLabel: "beta",
		YLabel: "normalized communication",
	}

	pl := cfg.pool()
	futs := make([]*rep[float64], len(betas))
	for i, b := range betas {
		futs[i] = measureNorm(pl, reps, root, init, lb, func(r *rng.PCG) core.Scheduler {
			return flat.NewTwoPhases(outer.Kernel, n, p, outer.Kernel.ThresholdFromBeta(b, n), r)
		})
	}

	simSeries := plot.Series{Name: "DynamicOuter2Phases"}
	frozen := plot.Series{Name: "Analysis (frozen x)"}
	refined := plot.Series{Name: "Analysis (accumulating x)"}
	for i, b := range betas {
		s := summarize(futs[i].Wait())
		simSeries.Points = append(simSeries.Points, plot.Point{X: b, Y: s.Mean, StdDev: s.StdDev})
		frozen.Points = append(frozen.Points, plot.Point{X: b, Y: analysis.RatioOuter(b, rs, n)})
		refined.Points = append(refined.Points, plot.Point{X: b, Y: analysis.RefinedRatioOuter(b, rs, n)})
	}
	res.Series = []plot.Series{simSeries, frozen, refined}

	bF, _ := analysis.OptimalBetaOuter(rs, n)
	bR, _ := analysis.OptimalBetaOuterRefined(rs, n)
	res.Notes = append(res.Notes,
		fmt.Sprintf("frozen-model beta*=%.3f, refined-model beta*=%.3f", bF, bR))
	return res
}
