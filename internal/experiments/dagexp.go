package experiments

import (
	"fmt"

	"hetsched/internal/cholesky"
	"hetsched/internal/dag"
	"hetsched/internal/lu"
	"hetsched/internal/plot"
	"hetsched/internal/qr"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
	"hetsched/internal/stats"
)

// dagSweep is one row of the paper's future-work extension (§5) made
// concrete: dynamic demand-driven scheduling of a kernel *with*
// dependencies. Its run sweeps the processor count and compares the
// three ready-task selection policies:
//
//   - RandomReady (the RandomOuter analogue),
//   - LocalityReady (the data-aware analogue: fewest tiles to ship),
//   - CriticalPathReady (HEFT-style depth priority + locality),
//
// reporting both the communication volume (tiles shipped, normalized
// by the kernel's tile count) and the parallel efficiency
// (work-bound/makespan, 1 = no dependency stalls).
type dagSweep struct {
	id        string
	kernel    *dag.Kernel
	n, quickN int
	tiles     func(n int) int // normalizes the communication volume
	notes     []string
}

var (
	// choleskySweep runs the tiled Cholesky factorization.
	choleskySweep = dagSweep{
		id: "abl-cholesky", kernel: cholesky.Kernel, n: 24, quickN: 12,
		tiles: func(n int) int { return n * (n + 1) / 2 }, // lower-triangle tiles
		notes: []string{"comm normalized by the number of lower-triangle tiles (a full broadcast of the matrix = p)"},
	}
	// luSweep runs the tiled LU factorization (no pivoting), whose DAG
	// activates both triangles of the matrix and has roughly twice the
	// task count of Cholesky for the same tile grid.
	luSweep = dagSweep{
		id: "abl-lu", kernel: lu.Kernel, n: 20, quickN: 10,
		tiles: squareTiles,
		notes: []string{"comm normalized by the n² tile count (a full broadcast of the matrix = p)"},
	}
	// qrSweep runs the tiled QR factorization with a flat reduction
	// tree, whose coupled TSQRT/TSMQR tasks write two tiles each — the
	// workload that exercises the engine's multi-output write
	// serialization.
	qrSweep = dagSweep{
		id: "abl-qr", kernel: qr.Kernel, n: 16, quickN: 8,
		tiles: squareTiles,
		notes: []string{
			"comm normalized by the n² tile count (a full broadcast of the matrix = p)",
			"TSQRT/TSMQR write two tiles each: multi-output write serialization in the dag engine",
		},
	}
)

func squareTiles(n int) int { return n * n }

func (s dagSweep) run(cfg Config) *plot.Result {
	root := cfg.figSeed(s.id)
	n := s.n
	ps := []int{4, 8, 16, 32, 64}
	reps := cfg.reps(10)
	if cfg.Quick {
		n = s.quickN
		ps = []int{4, 16}
	}
	k := s.kernel

	res := &plot.Result{
		ID:     s.id,
		Title:  fmt.Sprintf("tiled %s (%d×%d tiles): ready-task policies", k.Name, n, n),
		XLabel: "processors",
		YLabel: "tiles shipped / total tiles; efficiency",
	}

	policies := []dag.Policy{dag.RandomReady, dag.LocalityReady, dag.CriticalPathReady}
	commSeries := make([]*plot.Series, len(policies))
	effSeries := make([]*plot.Series, len(policies))
	for i, pol := range policies {
		commSeries[i] = &plot.Series{Name: "comm " + pol.String()}
		effSeries[i] = &plot.Series{Name: "eff " + pol.String()}
	}

	tiles := float64(s.tiles(n))
	work := k.TotalWork(n)
	type out struct{ comm, eff float64 }
	pl := cfg.pool()
	futs := make([][]*rep[out], len(ps))
	for pi, p := range ps {
		futs[pi] = make([]*rep[out], len(policies))
		for i, pol := range policies {
			futs[pi][i] = replicate(pl, reps, 2, root, func(_ int, streams []*rng.PCG) out {
				init := defaultPlatform.gen(p, streams[0])
				m := sim.RunDriver(dag.NewDriver(k, n, p, pol, streams[1]), speeds.NewFixed(init))
				sumSpeed := 0.0
				for _, v := range init {
					sumSpeed += v
				}
				return out{comm: float64(m.Blocks) / tiles, eff: work / sumSpeed / m.Makespan}
			})
		}
	}
	for pi, p := range ps {
		for i := range policies {
			var comm, eff stats.Accumulator
			for _, o := range futs[pi][i].Wait() {
				comm.Add(o.comm)
				eff.Add(o.eff)
			}
			commSeries[i].Points = append(commSeries[i].Points, plot.Point{
				X: float64(p), Y: comm.Mean(), StdDev: comm.StdDev(),
			})
			effSeries[i].Points = append(effSeries[i].Points, plot.Point{
				X: float64(p), Y: eff.Mean(), StdDev: eff.StdDev(),
			})
		}
	}
	for _, ser := range commSeries {
		res.Series = append(res.Series, *ser)
	}
	for _, ser := range effSeries {
		res.Series = append(res.Series, *ser)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d tasks, %d replications per point, speeds %s", k.Tasks(n), reps, defaultPlatform.name))
	res.Notes = append(res.Notes, s.notes...)
	return res
}
