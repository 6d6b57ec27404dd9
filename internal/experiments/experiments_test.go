package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hetsched/internal/plot"
)

var quickCfg = Config{Seed: 1, Quick: true}

func findSeries(t *testing.T, res *plot.Result, name string) plot.Series {
	t.Helper()
	for _, s := range res.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("%s: series %q not found (have %v)", res.ID, name, seriesNames(res))
	return plot.Series{}
}

func seriesNames(res *plot.Result) []string {
	var names []string
	for _, s := range res.Series {
		names = append(names, s.Name)
	}
	return names
}

// TestAllExperimentsRun smoke-tests every registry entry in quick mode
// and checks basic well-formedness.
func TestAllExperimentsRun(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res := Registry[id].Run(quickCfg)
			if res.ID != id {
				t.Fatalf("result ID %q, want %q", res.ID, id)
			}
			if len(res.Series) == 0 {
				t.Fatal("no series")
			}
			for _, s := range res.Series {
				if len(s.Points) == 0 {
					t.Fatalf("series %q empty", s.Name)
				}
				for _, p := range s.Points {
					if math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
						t.Fatalf("series %q has invalid point %+v", s.Name, p)
					}
				}
			}
			// Rendering must not fail either.
			if res.Table() == "" || res.ASCII(40, 8) == "" {
				t.Fatal("empty rendering")
			}
			var sb strings.Builder
			if err := res.WriteCSV(&sb); err != nil {
				t.Fatalf("CSV: %v", err)
			}
		})
	}
}

// TestQuickExperimentsFiniteOverSeeds: no Quick experiment plots a
// non-finite point on any of the seeds 1–14. abl-switchtime used to: on
// seeds 3, 7, 11 and 12 a processor never reaches its switch point in
// any replication, and the mean of its empty accumulator is NaN.
func TestQuickExperimentsFiniteOverSeeds(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			for seed := uint64(1); seed <= 14; seed++ {
				res := Registry[id].Run(Config{Seed: seed, Quick: true})
				for _, s := range res.Series {
					if len(s.Points) == 0 {
						t.Errorf("seed %d: series %q is empty", seed, s.Name)
					}
					for _, p := range s.Points {
						if v := p.X + p.Y + p.StdDev; math.IsNaN(v) || math.IsInf(v, 0) {
							t.Errorf("seed %d: series %q has the non-finite point %+v", seed, s.Name, p)
						}
					}
				}
			}
		})
	}
}

// TestDataAwareBeatsRandom encodes the paper's central qualitative
// claim (Figs 1, 4, 9): data-aware strategies ship far less data.
func TestDataAwareBeatsRandom(t *testing.T) {
	res := Fig4(quickCfg)
	dyn := findSeries(t, res, "DynamicOuter")
	two := findSeries(t, res, "DynamicOuter2Phases")
	rnd := findSeries(t, res, "RandomOuter")
	for i := range rnd.Points {
		if dyn.Points[i].Y >= rnd.Points[i].Y {
			t.Fatalf("p=%g: DynamicOuter %.3f not below RandomOuter %.3f",
				rnd.Points[i].X, dyn.Points[i].Y, rnd.Points[i].Y)
		}
		if two.Points[i].Y >= rnd.Points[i].Y {
			t.Fatalf("p=%g: two-phase %.3f not below RandomOuter %.3f",
				rnd.Points[i].X, two.Points[i].Y, rnd.Points[i].Y)
		}
	}
}

// TestAnalysisTracksSimulation encodes the paper's headline claim
// (Figs 4, 5): the ODE analysis predicts the two-phase strategy's
// communication volume closely.
func TestAnalysisTracksSimulation(t *testing.T) {
	res := Fig4(Config{Seed: 2, Quick: true, Reps: 4})
	two := findSeries(t, res, "DynamicOuter2Phases")
	ana := findSeries(t, res, "Analysis")
	for i := range two.Points {
		rel := math.Abs(two.Points[i].Y-ana.Points[i].Y) / two.Points[i].Y
		if rel > 0.12 {
			t.Fatalf("p=%g: analysis %.3f vs simulation %.3f (%.1f%% off)",
				two.Points[i].X, ana.Points[i].Y, two.Points[i].Y, 100*rel)
		}
	}
}

// TestMatrixAnalysisTracksSimulation is the matrix counterpart
// (Figs 9, 10).
func TestMatrixAnalysisTracksSimulation(t *testing.T) {
	res := Fig9(Config{Seed: 3, Quick: true, Reps: 3})
	two := findSeries(t, res, "DynamicMatrix2Phases")
	ana := findSeries(t, res, "Analysis")
	for i := range two.Points {
		rel := math.Abs(two.Points[i].Y-ana.Points[i].Y) / two.Points[i].Y
		if rel > 0.20 {
			t.Fatalf("p=%g: analysis %.3f vs simulation %.3f (%.1f%% off)",
				two.Points[i].X, ana.Points[i].Y, two.Points[i].Y, 100*rel)
		}
	}
}

// TestFig2Extremes: with everything in phase 2 the two-phase strategy
// degenerates to RandomOuter; with everything in phase 1 it is
// DynamicOuter; the tuned optimum beats both.
func TestFig2Extremes(t *testing.T) {
	res := Fig2(Config{Seed: 4, Quick: true, Reps: 4})
	two := findSeries(t, res, "DynamicOuter2Phases")
	rnd := findSeries(t, res, "RandomOuter")
	dyn := findSeries(t, res, "DynamicOuter")

	first := two.Points[0]                // 0% in phase 1
	last := two.Points[len(two.Points)-1] // 100% in phase 1
	if math.Abs(first.Y-rnd.Points[0].Y)/rnd.Points[0].Y > 0.15 {
		t.Fatalf("0%% phase-1 two-phase %.3f far from RandomOuter %.3f", first.Y, rnd.Points[0].Y)
	}
	if math.Abs(last.Y-dyn.Points[0].Y)/dyn.Points[0].Y > 0.15 {
		t.Fatalf("100%% phase-1 two-phase %.3f far from DynamicOuter %.3f", last.Y, dyn.Points[0].Y)
	}
	best := math.Inf(1)
	for _, p := range two.Points {
		best = math.Min(best, p.Y)
	}
	if best >= last.Y {
		t.Fatalf("tuned two-phase %.3f no better than pure dynamic %.3f", best, last.Y)
	}
}

// TestFig6MinimizerInFlatRegion checks that the analysis minimizer
// lands where the simulated curve is near its minimum.
func TestFig6MinimizerInFlatRegion(t *testing.T) {
	res := Fig6(Config{Seed: 5, Quick: true, Reps: 4})
	two := findSeries(t, res, "DynamicOuter2Phases")
	ana := findSeries(t, res, "Analysis")

	bestSim, bestAna := math.Inf(1), math.Inf(1)
	var bestAnaX float64
	for i := range two.Points {
		bestSim = math.Min(bestSim, two.Points[i].Y)
		if ana.Points[i].Y < bestAna {
			bestAna = ana.Points[i].Y
			bestAnaX = ana.Points[i].X
		}
	}
	// Simulated value at the analysis minimizer within 10% of the
	// simulated optimum.
	for i := range two.Points {
		if two.Points[i].X == bestAnaX {
			if (two.Points[i].Y-bestSim)/bestSim > 0.10 {
				t.Fatalf("sim at analysis minimizer %.3f, sim optimum %.3f", two.Points[i].Y, bestSim)
			}
			return
		}
	}
	t.Fatal("analysis minimizer not on the sweep grid")
}

// TestFig7RankingStable: heterogeneity must not change the strategy
// ranking (Fig 7's message).
func TestFig7RankingStable(t *testing.T) {
	res := Fig7(Config{Seed: 6, Quick: true, Reps: 6})
	two := findSeries(t, res, "DynamicOuter2Phases")
	dyn := findSeries(t, res, "DynamicOuter")
	rnd := findSeries(t, res, "RandomOuter")
	for i := range two.Points {
		if !(two.Points[i].Y <= dyn.Points[i].Y+0.1 && dyn.Points[i].Y < rnd.Points[i].Y) {
			t.Fatalf("h=%g: ranking violated (2ph %.3f, dyn %.3f, rnd %.3f)",
				two.Points[i].X, two.Points[i].Y, dyn.Points[i].Y, rnd.Points[i].Y)
		}
	}
}

// TestSec36Claims: the speed-agnostic tuning claims of §3.6.
func TestSec36Claims(t *testing.T) {
	res := Sec36(Config{Seed: 7, Quick: true})
	spread := findSeries(t, res, "beta* spread (max-min)")
	for _, p := range spread.Points {
		if p.Y > 0.30 {
			t.Fatalf("beta* spread %.3f at %s too large", p.Y, res.XTicks[p.X])
		}
	}
	volErr := findSeries(t, res, "worst volume error using beta_hom (%)")
	for _, p := range volErr.Points {
		if p.Y > 1.0 {
			t.Fatalf("volume error %.3f%% at %s exceeds 1%%", p.Y, res.XTicks[p.X])
		}
	}
}

// TestAblationStaticBounds: the continuous static partition must sit
// between the lower bound (1.0) and 7/4.
func TestAblationStaticBounds(t *testing.T) {
	res := AblationStatic(Config{Seed: 8, Quick: true, Reps: 3})
	cont := findSeries(t, res, "StaticColumn (continuous)")
	for _, p := range cont.Points {
		if p.Y < 1.0-1e-9 || p.Y > 1.75+1e-9 {
			t.Fatalf("static continuous cost %.4f at p=%g outside [1, 1.75]", p.Y, p.X)
		}
	}
}

// TestDeterministicAcrossRuns: same config, same results.
func TestDeterministicAcrossRuns(t *testing.T) {
	a := Fig1(Config{Seed: 9, Quick: true})
	b := Fig1(Config{Seed: 9, Quick: true})
	for si := range a.Series {
		for pi := range a.Series[si].Points {
			if a.Series[si].Points[pi] != b.Series[si].Points[pi] {
				t.Fatalf("non-deterministic experiment: %+v vs %+v",
					a.Series[si].Points[pi], b.Series[si].Points[pi])
			}
		}
	}
}

func TestIDsOrdering(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Fatalf("IDs() returned %d entries, registry has %d", len(ids), len(Registry))
	}
	// fig1 before fig2 before fig10 (numeric, not lexicographic).
	pos := map[string]int{}
	for i, id := range ids {
		pos[id] = i
	}
	if !(pos["fig1"] < pos["fig2"] && pos["fig2"] < pos["fig10"]) {
		t.Fatalf("figure ordering wrong: %v", ids)
	}
}

// TestMapReduceOrdering encodes the intro's hierarchy: emit-pairs >
// 1D rows > cached random > data-aware two-phase, at every processor
// count.
func TestMapReduceOrdering(t *testing.T) {
	res := MapReduce(Config{Seed: 10, Quick: true, Reps: 3})
	emit := findSeries(t, res, "MapReduce emit-pairs")
	oneD := findSeries(t, res, "DynamicOuter1D (rows)")
	rnd := findSeries(t, res, "RandomOuter")
	two := findSeries(t, res, "DynamicOuter2Phases")
	for i := range emit.Points {
		p := emit.Points[i].X
		if !(two.Points[i].Y < rnd.Points[i].Y && rnd.Points[i].Y < emit.Points[i].Y) {
			t.Fatalf("p=%g: hierarchy violated (2ph %.2f, rnd %.2f, emit %.2f)",
				p, two.Points[i].Y, rnd.Points[i].Y, emit.Points[i].Y)
		}
		if oneD.Points[i].Y <= two.Points[i].Y {
			t.Fatalf("p=%g: 1D strategy %.2f not worse than 2D two-phase %.2f",
				p, oneD.Points[i].Y, two.Points[i].Y)
		}
	}
}

// TestOverlapBandwidthMonotone: more bandwidth never hurts, and the
// data-aware strategy dominates RandomOuter at every finite bandwidth.
func TestOverlapBandwidthMonotone(t *testing.T) {
	res := Overlap(Config{Seed: 11, Quick: true, Reps: 3})
	two := findSeries(t, res, "DynamicOuter2Phases (lookahead 2)")
	rnd := findSeries(t, res, "RandomOuter (lookahead 2)")
	for i := range two.Points {
		if i > 0 && two.Points[i].Y > two.Points[i-1].Y*1.15 {
			t.Fatalf("two-phase makespan increases with bandwidth: %.3f → %.3f",
				two.Points[i-1].Y, two.Points[i].Y)
		}
		// Where bandwidth is the constraint (random clearly stalling),
		// the data-aware strategy must do better; at abundant
		// bandwidth random's finer granularity can balance slightly
		// better, which is fine.
		if rnd.Points[i].Y > 1.3 && two.Points[i].Y > rnd.Points[i].Y {
			t.Fatalf("x=%g: two-phase %.3f worse than random %.3f under tight bandwidth",
				two.Points[i].X, two.Points[i].Y, rnd.Points[i].Y)
		}
	}
}

// TestRobustnessShape: the static partition degrades with speed
// misestimation while the dynamic scheduler does not.
func TestRobustnessShape(t *testing.T) {
	res := Robustness(Config{Seed: 12, Quick: true, Reps: 5})
	static := findSeries(t, res, "StaticColumn (estimated speeds)")
	dyn := findSeries(t, res, "DynamicOuter2Phases")
	first, last := static.Points[0], static.Points[len(static.Points)-1]
	if last.Y < first.Y*1.3 {
		t.Fatalf("static makespan barely degraded: %.3f → %.3f", first.Y, last.Y)
	}
	for _, p := range dyn.Points {
		if p.Y > 1.2 {
			t.Fatalf("dynamic makespan %.3f at ε=%g far from ideal", p.Y, p.X)
		}
	}
}

// TestCholeskyAndLULocalityWin: on both dependency kernels the
// locality policy ships fewer tiles than random selection.
func TestCholeskyAndLULocalityWin(t *testing.T) {
	for _, id := range []string{"abl-cholesky", "abl-lu"} {
		res := Registry[id].Run(Config{Seed: 13, Quick: true, Reps: 3})
		rnd := findSeries(t, res, "comm RandomReady")
		loc := findSeries(t, res, "comm LocalityReady")
		for i := range rnd.Points {
			if loc.Points[i].Y >= rnd.Points[i].Y {
				t.Fatalf("%s p=%g: locality %.2f not below random %.2f",
					id, rnd.Points[i].X, loc.Points[i].Y, rnd.Points[i].Y)
			}
		}
	}
}

// TestConvergenceDeviationShrinks: the headline of the mean-field
// experiments — larger n tracks the closed form more tightly.
func TestConvergenceDeviationShrinks(t *testing.T) {
	res := Convergence(Config{Seed: 14, Reps: 8}) // full sizes, n ∈ {30,100,300}
	// Parse the deviations out of the notes? No — recompute from the
	// series directly.
	devOf := func(n int) float64 {
		measured := findSeries(t, res, fmt.Sprintf("measured n=%d", n))
		theory := findSeries(t, res, fmt.Sprintf("(1−x²)^α n=%d", n))
		worst := 0.0
		for _, mp := range measured.Points {
			for _, tp := range theory.Points {
				if tp.X == mp.X {
					if d := math.Abs(mp.Y - tp.Y); d > worst {
						worst = d
					}
				}
			}
		}
		return worst
	}
	small, large := devOf(30), devOf(300)
	if large >= small {
		t.Fatalf("deviation did not shrink with n: n=30 → %.4f, n=300 → %.4f", small, large)
	}
	if large > 0.05 {
		t.Fatalf("n=300 deviation %.4f too large for the mean-field claim", large)
	}
}
