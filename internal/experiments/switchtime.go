package experiments

import (
	"fmt"
	"math"
	"strings"

	"hetsched/internal/analysis"
	"hetsched/internal/outer"
	"hetsched/internal/plot"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
	"hetsched/internal/stats"
)

// SwitchTime validates Lemma 3 directly: with the switch fractions
// x_k = √(1−e^(−β·rs_k)), every processor reaches its x_k at (almost)
// the same instant, t = n²·(1−e^(−β))/Σs — which is what makes a
// single global phase-switch threshold sound. The experiment runs
// DynamicOuter, records for each processor the virtual time at which
// it first owns x_k·n blocks, and plots those times (sorted by
// relative speed) against the predicted constant.
func SwitchTime(cfg Config) *plot.Result {
	root := cfg.figSeed("abl-switchtime")
	n := outerN(cfg, 100)
	if !cfg.Quick {
		n = 300
	}
	p := 20
	reps := cfg.reps(10)
	beta := 4.0

	init := defaultPlatform.gen(p, root.Split())
	rs := speeds.Relative(init)
	sumS := 0.0
	for _, v := range init {
		sumS += v
	}
	predicted := float64(n) * float64(n) * (1 - math.Exp(-beta)) / sumS

	// Target block counts per processor.
	target := make([]int, p)
	for k := 0; k < p; k++ {
		target[k] = int(math.Ceil(analysis.XOuter(beta, rs[k]) * float64(n)))
	}

	type out struct {
		times    []float64
		recorded []bool
	}
	fut := replicate(cfg.pool(), reps, 1, root, func(_ int, streams []*rng.PCG) out {
		o := out{times: make([]float64, p), recorded: make([]bool, p)}
		sched := outer.NewDynamic(n, p, streams[0])
		sim.RunObserved(sched, speeds.NewFixed(init), func(ob sim.Observation) {
			w := ob.Proc
			if o.recorded[w] {
				return
			}
			if sched.Known(w) >= target[w] {
				o.recorded[w] = true
				o.times[w] = ob.Time
			}
		})
		return o
	})
	accs := make([]stats.Accumulator, p)
	for _, o := range fut.Wait() {
		for w := 0; w < p; w++ {
			if o.recorded[w] {
				accs[w].Add(o.times[w])
			}
		}
	}

	// Sort processors by relative speed for the x axis.
	order := make([]int, p)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if rs[order[j]] < rs[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}

	res := &plot.Result{
		ID:     "abl-switchtime",
		Title:  fmt.Sprintf("Lemma 3: processor-independent switch instant (p=%d, n=%d, beta=%g)", p, n, beta),
		XLabel: "processor rank by relative speed",
		YLabel: "time to reach x_k ownership",
	}
	measured := plot.Series{Name: "measured t_k(x_k)"}
	pred := plot.Series{Name: "predicted n²(1−e^−β)/Σs"}
	worst := 0.0
	var never []string
	for rank, k := range order {
		x := float64(rank)
		pred.Points = append(pred.Points, plot.Point{X: x, Y: predicted})
		if accs[k].N() == 0 {
			// The processor never owned x_k·n blocks in any replication
			// (at small n the run can end first): it has no switch
			// instant to plot or to compare.
			never = append(never, fmt.Sprintf("rank %d (rs=%.3f)", rank, rs[k]))
			continue
		}
		mean := accs[k].Mean()
		measured.Points = append(measured.Points, plot.Point{X: x, Y: mean, StdDev: accs[k].StdDev()})
		if rel := math.Abs(mean-predicted) / predicted; rel > worst {
			worst = rel
		}
	}
	res.Series = []plot.Series{measured, pred}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d replications; worst relative deviation of any processor's switch instant from the common prediction: %.2f%%", reps, 100*worst))
	if len(never) > 0 {
		res.Notes = append(res.Notes,
			fmt.Sprintf("left out, never reached their switch point in any replication: %s", strings.Join(never, ", ")))
	}
	return res
}
