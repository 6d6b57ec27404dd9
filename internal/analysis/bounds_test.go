package analysis_test

import (
	"hetsched/internal/analysis"
	"math"
	"testing"

	"hetsched/internal/flat"
	"hetsched/internal/matmul"
	"hetsched/internal/outer"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

func TestAPosterioriLBOuterValues(t *testing.T) {
	// One processor computing 25 tasks needs ≥ 2·5 = 10 blocks.
	if got := analysis.APosterioriLBOuter([]int{25}); got != 10 {
		t.Fatalf("LB = %g, want 10", got)
	}
	// Idle processors contribute nothing.
	if got := analysis.APosterioriLBOuter([]int{0, 25, 0}); got != 10 {
		t.Fatalf("LB with idle procs = %g, want 10", got)
	}
	if got := analysis.APosterioriLBOuter(nil); got != 0 {
		t.Fatalf("LB of empty = %g", got)
	}
}

func TestAPosterioriLBMatrixValues(t *testing.T) {
	// 8 tasks → 3·8^(2/3) = 12.
	if got := analysis.APosterioriLBMatrix([]int{8}); math.Abs(got-12) > 1e-9 {
		t.Fatalf("LB = %g, want 12", got)
	}
}

func TestAPosterioriPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative task count did not panic")
		}
	}()
	analysis.APosterioriLBOuter([]int{-1})
}

// TestSimulatedRunsRespectAPosterioriBounds is a hard invariant: no
// simulated strategy may ship fewer blocks than the a-posteriori bound
// derived from its realized task split.
func TestSimulatedRunsRespectAPosterioriBounds(t *testing.T) {
	root := rng.New(77)
	const p = 8
	s := speeds.UniformRange(p, 10, 100, root.Split())

	const nOuter = 40
	outerRuns := map[string]*sim.Metrics{
		"RandomOuter":  sim.Run(flat.NewRandom(outer.Kernel, nOuter, p, root.Split()), speeds.NewFixed(s)),
		"SortedOuter":  sim.Run(flat.NewSorted(outer.Kernel, nOuter, p, root.Split()), speeds.NewFixed(s)),
		"DynamicOuter": sim.Run(outer.NewDynamic(nOuter, p, root.Split()), speeds.NewFixed(s)),
		"TwoPhases":    sim.Run(flat.NewTwoPhases(outer.Kernel, nOuter, p, outer.Kernel.ThresholdFromBeta(4, nOuter), root.Split()), speeds.NewFixed(s)),
	}
	for name, m := range outerRuns {
		lb := analysis.APosterioriLBOuter(m.TasksPer)
		if float64(m.Blocks) < lb-1e-9 {
			t.Fatalf("%s shipped %d blocks, below its a-posteriori bound %.1f", name, m.Blocks, lb)
		}
	}

	const nMat = 12
	matRuns := map[string]*sim.Metrics{
		"RandomMatrix":  sim.Run(flat.NewRandom(matmul.Kernel, nMat, p, root.Split()), speeds.NewFixed(s)),
		"DynamicMatrix": sim.Run(matmul.NewDynamic(nMat, p, root.Split()), speeds.NewFixed(s)),
		"TwoPhases":     sim.Run(flat.NewTwoPhases(matmul.Kernel, nMat, p, matmul.Kernel.ThresholdFromBeta(3, nMat), root.Split()), speeds.NewFixed(s)),
	}
	for name, m := range matRuns {
		lb := analysis.APosterioriLBMatrix(m.TasksPer)
		if float64(m.Blocks) < lb-1e-9 {
			t.Fatalf("%s shipped %d blocks, below its a-posteriori bound %.1f", name, m.Blocks, lb)
		}
	}
}

// TestAPrioriVsAPosteriori: for a speed-proportional split the
// a-posteriori bound approaches the paper's a-priori lower bound.
func TestAPrioriVsAPosteriori(t *testing.T) {
	root := rng.New(78)
	const p, n = 10, 200
	s := speeds.UniformRange(p, 10, 100, root.Split())
	rs := speeds.Relative(s)
	tasks := make([]int, p)
	for k := range tasks {
		tasks[k] = int(rs[k] * float64(n*n))
	}
	apost := analysis.APosterioriLBOuter(tasks)
	apri := analysis.LowerBoundOuter(rs, n)
	if math.Abs(apost-apri)/apri > 0.01 {
		t.Fatalf("a-posteriori %g vs a-priori %g diverge for proportional split", apost, apri)
	}
}

func TestRatio1DOuterMatchesSimulation(t *testing.T) {
	root := rng.New(90)
	for _, p := range []int{5, 20, 40} {
		const n = 80
		s := speeds.UniformRange(p, 10, 100, root.Split())
		rs := speeds.Relative(s)
		m := sim.Run(outer.NewDynamic1D(n, p, root.Split()), speeds.NewFixed(s))
		lb := analysis.LowerBoundOuter(rs, n)
		got := float64(m.Blocks) / lb
		pred := analysis.Ratio1DOuter(rs, n)
		if rel := math.Abs(got-pred) / pred; rel > 0.05 {
			t.Fatalf("p=%d: simulated 1D ratio %.3f vs predicted %.3f (%.1f%% off)",
				p, got, pred, 100*rel)
		}
	}
}
