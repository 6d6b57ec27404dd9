package experiments

import (
	"fmt"
	"math"

	"hetsched/internal/analysis"
	"hetsched/internal/outer"
	"hetsched/internal/plot"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

// Overlap probes the paper's standing assumption that communication
// overlaps perfectly with computation (§3.1): it re-runs the outer
// product strategies on a master with a finite outgoing link and a
// small per-worker prefetch window, and reports the makespan inflation
// over the ideal compute time n²/Σs.
//
// Two sweeps in one figure: (a) bandwidth at a fixed lookahead of 2,
// showing that data-aware strategies tolerate ~2x lower bandwidth
// before stalling (they ship less); (b) lookahead at a fixed bandwidth,
// reproducing the cited observation ([12, 15] in the paper) that a
// *small* number of prefetched assignments suffices for good overlap.
func Overlap(cfg Config) *plot.Result {
	root := cfg.figSeed("abl-overlap")
	n := outerN(cfg, 100)
	p := 20
	reps := cfg.reps(10)

	res := &plot.Result{
		ID:     "abl-overlap",
		Title:  fmt.Sprintf("communication/computation overlap: finite master bandwidth (p=%d, n=%d)", p, n),
		XLabel: "bandwidth (blocks per unit time); lookahead at B=fixed",
		YLabel: "makespan / ideal",
	}

	bandwidths := []float64{50, 100, 200, 400, 800, 1600, math.Inf(1)}
	lookaheads := []int{0, 1, 2, 4, 8}
	if cfg.Quick {
		bandwidths = []float64{100, 800, math.Inf(1)}
		lookaheads = []int{0, 2}
	}

	pl := cfg.pool()
	measure := func(st strategyID, bw float64, la int) *rep[float64] {
		return replicate(pl, reps, 2, root, func(_ int, streams []*rng.PCG) float64 {
			init := defaultPlatform.gen(p, streams[0])
			rs := speeds.Relative(init)
			sumS := 0.0
			for _, v := range init {
				sumS += v
			}
			ideal := float64(n*n) / sumS
			var beta float64
			if st == stTwoPhases {
				beta, _ = outer.Kernel.OptimalBeta(rs, n)
			}
			sched := st.scheduler(outer.Kernel, n, p, beta, streams[1])
			m := sim.RunBandwidth(sched, speeds.NewFixed(init), bw, la)
			return m.Makespan / ideal
		})
	}

	sts := []strategyID{stTwoPhases, stRandom}

	// (a) bandwidth sweep at lookahead 2. Infinite bandwidth is
	// plotted at twice the largest finite value.
	bwFuts := make([][]*rep[float64], len(sts))
	for si, st := range sts {
		bwFuts[si] = make([]*rep[float64], len(bandwidths))
		for bi, bw := range bandwidths {
			bwFuts[si][bi] = measure(st, bw, 2)
		}
	}
	// (b) lookahead sweep at a bandwidth that is tight but feasible
	// for the data-aware strategy.
	const tightBW = 400
	laFuts := make([][]*rep[float64], len(sts))
	for si, st := range sts {
		laFuts[si] = make([]*rep[float64], len(lookaheads))
		for li, la := range lookaheads {
			laFuts[si][li] = measure(st, tightBW, la)
		}
	}

	xInf := 2 * bandwidths[len(bandwidths)-2]
	for si, st := range sts {
		s := plot.Series{Name: st.name(outer.Kernel) + " (lookahead 2)"}
		for bi, bw := range bandwidths {
			x := bw
			if math.IsInf(bw, 1) {
				x = xInf
			}
			sum := summarize(bwFuts[si][bi].Wait())
			s.Points = append(s.Points, plot.Point{X: x, Y: sum.Mean, StdDev: sum.StdDev})
		}
		res.Series = append(res.Series, s)
	}
	for si, st := range sts {
		s := plot.Series{Name: fmt.Sprintf("%s (B=%d, vs lookahead)", st.name(outer.Kernel), tightBW)}
		for li, la := range lookaheads {
			// Encode lookahead on the same x axis, scaled for
			// readability in the combined chart.
			sum := summarize(laFuts[si][li].Wait())
			s.Points = append(s.Points, plot.Point{X: float64(la), Y: sum.Mean, StdDev: sum.StdDev})
		}
		res.Series = append(res.Series, s)
	}

	ana, _ := analysis.OptimalBetaOuter(speeds.Homogeneous(p), n)
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d replications per point; two-phase threshold from beta_hom=%.2f", reps, ana),
		"ideal = n²/Σs (pure compute); infinite bandwidth plotted at x="+fmt.Sprint(xInf),
		"series (a) sweep bandwidth at lookahead 2; series (b) sweep lookahead 0..8 at B=400",
	)
	return res
}
