package experiments

import (
	"fmt"

	"hetsched/internal/analysis"
	"hetsched/internal/outer"
	"hetsched/internal/plot"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
	"hetsched/internal/stats"
)

// MapReduce reproduces the paper's motivating observation (§1, and
// reference [3]): a MapReduce-style implementation of the outer
// product is oblivious to the 2-dimensional structure of the data and
// replicates massively. Three levels of data awareness are compared:
//
//   - "MapReduce emit-pairs": every task (i,j) ships both its blocks,
//     no worker-side caching — the textbook emit-all-pairs mapper;
//     communication is exactly 2n² blocks regardless of p;
//   - "RandomOuter": random task placement but workers cache blocks;
//   - "DynamicOuter2Phases": the paper's data-aware scheduler.
//
// All normalized by the lower bound, over a processor sweep.
func MapReduce(cfg Config) *plot.Result {
	root := cfg.figSeed("abl-mapreduce")
	n := outerN(cfg, 100)
	reps := cfg.reps(10)
	ps := outerPs(cfg)

	res := &plot.Result{
		ID:     "abl-mapreduce",
		Title:  fmt.Sprintf("outer product: data-oblivious MapReduce vs data-aware scheduling (n=%d)", n),
		XLabel: "processors",
		YLabel: "normalized communication",
	}

	emit := plot.Series{Name: "MapReduce emit-pairs"}
	oneD := plot.Series{Name: "DynamicOuter1D (rows)"}
	random := plot.Series{Name: "RandomOuter"}
	two := plot.Series{Name: "DynamicOuter2Phases"}

	type out struct{ emit, oneD, random, two float64 }
	pl := cfg.pool()
	futs := make([]*rep[out], len(ps))
	for i, p := range ps {
		futs[i] = replicate(pl, reps, 4, root, func(_ int, streams []*rng.PCG) out {
			init := defaultPlatform.gen(p, streams[0])
			rs := speeds.Relative(init)
			lb := analysis.LowerBoundOuter(rs, n)

			m1 := sim.Run(outer.NewDynamic1D(n, p, streams[1]), speeds.NewFixed(init))
			beta, _ := outer.Kernel.OptimalBeta(rs, n)
			mR := sim.Run(stRandom.scheduler(outer.Kernel, n, p, 0, streams[2]), speeds.NewFixed(init))
			mT := sim.Run(stTwoPhases.scheduler(outer.Kernel, n, p, beta, streams[3]), speeds.NewFixed(init))
			return out{
				// Emit-all-pairs ships 2 blocks per task, unconditionally.
				emit:   2 * float64(n) * float64(n) / lb,
				oneD:   float64(m1.Blocks) / lb,
				random: float64(mR.Blocks) / lb,
				two:    float64(mT.Blocks) / lb,
			}
		})
	}
	for i, p := range ps {
		var accE, acc1, accR, accT stats.Accumulator
		for _, o := range futs[i].Wait() {
			accE.Add(o.emit)
			acc1.Add(o.oneD)
			accR.Add(o.random)
			accT.Add(o.two)
		}
		x := float64(p)
		emit.Points = append(emit.Points, plot.Point{X: x, Y: accE.Mean(), StdDev: accE.StdDev()})
		oneD.Points = append(oneD.Points, plot.Point{X: x, Y: acc1.Mean(), StdDev: acc1.StdDev()})
		random.Points = append(random.Points, plot.Point{X: x, Y: accR.Mean(), StdDev: accR.StdDev()})
		two.Points = append(two.Points, plot.Point{X: x, Y: accT.Mean(), StdDev: accT.StdDev()})
	}

	res.Series = []plot.Series{two, random, oneD, emit}
	res.Notes = append(res.Notes,
		"emit-pairs replicates each block ~n times: its normalized volume grows like n/Σ√rs_k and dwarfs even RandomOuter",
		"the 1D row strategy caches but ignores the 2D structure: comm ≈ (p+1)·n grows like √p× the lower bound",
		fmt.Sprintf("%d replications per point", reps))
	return res
}
