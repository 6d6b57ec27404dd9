package experiments

import (
	"fmt"
	"math"

	"hetsched/internal/analysis"
	"hetsched/internal/flat"
	"hetsched/internal/matmul"
	"hetsched/internal/outer"
	"hetsched/internal/plot"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
	"hetsched/internal/stats"
)

// odeSweep validates the mean-field assumption behind a flat kernel's
// closed form directly: during runs of its data-aware strategy it
// samples, at every assignment of a tracked processor knowing y
// indices, the measured fraction g(x) of unprocessed tasks outside
// that processor's cube of y^d tasks and compares it with
// g(x) = (1−x^d)^α (Lemma 1 for the outer product, Lemma 7 for matrix
// multiplication). The measurement is exact and O(1): every task
// inside the cube is processed by construction, so the rest holds all
// remaining tasks and g = remaining/(n^d − y^d).
//
// The ODE is the limit of the discrete process for large n and p; the
// experiment shows the discrete trajectory tightening around the
// closed form as n grows (the paper relies on this via simulations but
// never plots it).
type odeSweep struct {
	id          string
	kernel      *flat.Kernel
	ns, quickNs []int
	form        string // the closed form, as the title and series name it
	known       string // what the tracked processor knows a fraction x of
	notes       []string
}

var (
	odeOuter = odeSweep{
		id: "abl-ode", kernel: outer.Kernel, ns: []int{30, 100, 300}, quickNs: []int{20, 60},
		form: "(1−x²)^α", known: "blocks",
		notes: []string{"the deviation shrinks as n grows: the discrete process converges to the ODE"},
	}
	odeMatrix = odeSweep{
		id: "abl-ode-matrix", kernel: matmul.Kernel, ns: []int{10, 20, 40}, quickNs: []int{8, 16},
		form: "(1−x³)^α", known: "indices",
	}
)

func (s odeSweep) run(cfg Config) *plot.Result {
	root := cfg.figSeed(s.id)
	p := 20
	ns := s.ns
	if cfg.Quick {
		ns = s.quickNs
	}
	k := s.kernel
	// pow is v^d by repeated multiplication, left to right.
	pow := func(v int) float64 {
		f, r := float64(v), 1.0
		for range k.Dim {
			r *= f
		}
		return r
	}

	res := &plot.Result{
		ID:     s.id,
		Title:  fmt.Sprintf("mean-field convergence: measured g(x) vs %s (p=%d)", s.form, p),
		XLabel: fmt.Sprintf("x (fraction of %s known)", s.known),
		YLabel: "g(x)",
	}

	const tracked = 0
	grid := []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50}

	reps := cfg.reps(5)
	pl := cfg.pool()
	type out struct {
		vals []float64 // per grid index, valid where set
		set  []bool
	}
	futs := make([]*rep[out], len(ns))
	alphas := make([]float64, len(ns))
	for ni, n := range ns {
		init := defaultPlatform.gen(p, root.Split())
		rs := speeds.Relative(init)
		alphas[ni] = analysis.Alpha(rs[tracked])

		// Measure each run's trajectory independently; the per-grid
		// averaging over reps (the ODE describes the expectation of
		// the process) happens at merge time, in replication order.
		futs[ni] = replicate(pl, reps, 1, root, func(_ int, streams []*rng.PCG) out {
			o := out{vals: make([]float64, len(grid)), set: make([]bool, len(grid))}
			sched := flat.NewDynamic(k, n, p, streams[0])
			next := 0
			sim.RunObserved(sched, speeds.NewFixed(init), func(ob sim.Observation) {
				if ob.Proc != tracked || next >= len(grid) {
					return
				}
				y := sched.Known(tracked)
				x := float64(y) / float64(n)
				if x+1e-12 < grid[next] {
					return
				}
				denom := pow(n) - pow(y)
				if denom <= 0 {
					return
				}
				o.vals[next] = float64(sched.Remaining()) / denom
				o.set[next] = true
				next++
			})
			return o
		})
	}
	for ni, n := range ns {
		alpha := alphas[ni]
		accs := make([]stats.Accumulator, len(grid))
		for _, o := range futs[ni].Wait() {
			for i := range grid {
				if o.set[i] {
					accs[i].Add(o.vals[i])
				}
			}
		}
		measured := plot.Series{Name: fmt.Sprintf("measured n=%d", n)}
		for i, x := range grid {
			if accs[i].N() == 0 {
				continue
			}
			measured.Points = append(measured.Points, plot.Point{
				X: x, Y: accs[i].Mean(), StdDev: accs[i].StdDev(),
			})
		}
		theory := plot.Series{Name: fmt.Sprintf("%s n=%d", s.form, n)}
		for _, x := range grid {
			theory.Points = append(theory.Points, plot.Point{X: x, Y: k.G(x, alpha)})
		}
		res.Series = append(res.Series, measured, theory)

		// Report the worst absolute deviation (relative deviation is
		// meaningless in the tail where g ≈ 0).
		worst := 0.0
		for _, pt := range measured.Points {
			worst = math.Max(worst, math.Abs(pt.Y-k.G(pt.X, alpha)))
		}
		res.Notes = append(res.Notes,
			fmt.Sprintf("n=%d: worst |measured − closed form| over the trajectory: %.4f", n, worst))
	}
	res.Notes = append(res.Notes, s.notes...)
	return res
}
