package outer

import (
	"testing"
	"testing/quick"

	"hetsched/internal/analysis"
	"hetsched/internal/core"
	"hetsched/internal/flat"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

func TestTaskIDRoundTrip(t *testing.T) {
	f := func(iRaw, jRaw, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		i, j := int(iRaw)%n, int(jRaw)%n
		gi, gj := Decode(TaskID(i, j, n), n)
		return gi == i && gj == j
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// drain drives a scheduler with a round-robin of workers until it is
// exhausted, invoking check after every assignment, and returns the
// total number of tasks and blocks handed out.
func drain(t *testing.T, s core.Scheduler, check func(w int, a core.Assignment)) (tasks, blocks int) {
	t.Helper()
	p := s.P()
	stuck := 0
	for w := 0; s.Remaining() > 0; w = (w + 1) % p {
		a, ok := s.Next(w)
		if !ok {
			stuck++
			if stuck > p {
				t.Fatalf("%s: no worker can make progress with %d tasks remaining", s.Name(), s.Remaining())
			}
			continue
		}
		stuck = 0
		tasks += len(a.Tasks)
		blocks += a.Blocks
		if check != nil {
			check(w, a)
		}
	}
	if _, ok := s.Next(0); ok {
		t.Fatalf("%s: Next succeeded on a drained scheduler", s.Name())
	}
	return tasks, blocks
}

// instanceOf returns the instance s runs on.
func instanceOf(s core.Scheduler) *flat.Instance {
	switch sch := s.(type) {
	case *flat.Random:
		return sch.Instance
	case *flat.Sorted:
		return sch.Instance
	case *Dynamic:
		return sch.Instance
	case *flat.TwoPhases:
		return sch.Instance
	}
	panic("outer: no instance")
}

// builders for all four strategies with a mid-range beta for the
// two-phase one.
func builders(n, p int) map[string]func(r *rng.PCG) core.Scheduler {
	return map[string]func(r *rng.PCG) core.Scheduler{
		"RandomOuter":  func(r *rng.PCG) core.Scheduler { return flat.NewRandom(Kernel, n, p, r) },
		"SortedOuter":  func(r *rng.PCG) core.Scheduler { return flat.NewSorted(Kernel, n, p, r) },
		"DynamicOuter": func(r *rng.PCG) core.Scheduler { return NewDynamic(n, p, r) },
		"DynamicOuter2Phases": func(r *rng.PCG) core.Scheduler {
			return flat.NewTwoPhases(Kernel, n, p, Kernel.ThresholdFromBeta(4, n), r)
		},
	}
}

func TestSingleTaskStrategiesAssignOneAtATime(t *testing.T) {
	const n, p = 20, 4
	for _, name := range []string{"RandomOuter", "SortedOuter"} {
		s := builders(n, p)[name](rng.New(3))
		drain(t, s, func(_ int, a core.Assignment) {
			if len(a.Tasks) != 1 {
				t.Fatalf("%s returned %d tasks in one assignment", name, len(a.Tasks))
			}
			if a.Blocks < 0 || a.Blocks > 2 {
				t.Fatalf("%s shipped %d blocks for one task", name, a.Blocks)
			}
		})
	}
}

func TestDynamicBatchInvariants(t *testing.T) {
	const n, p = 40, 6
	s := NewDynamic(n, p, rng.New(11))
	perWorkerBatches := make([]int, p)
	drain(t, s, func(w int, a core.Assignment) {
		if a.Blocks < 1 || a.Blocks > 2 {
			t.Fatalf("DynamicOuter shipped %d blocks in one step, want 1..2", a.Blocks)
		}
		perWorkerBatches[w]++
		// A fresh (a_i, b_j) pair can unlock at most |I|+|J|+1 = 2y+1
		// tasks where y is the number of prior batches of this worker.
		if max := 2*(perWorkerBatches[w]-1) + 1; len(a.Tasks) > max {
			t.Fatalf("DynamicOuter batch %d of worker %d has %d tasks, max %d",
				perWorkerBatches[w], w, len(a.Tasks), max)
		}
	})
}

func TestDynamicCommBound(t *testing.T) {
	// DynamicOuter ships at most 2 blocks per step and each worker can
	// take at most n steps, so total comm ≤ 2·p·n. It must also be at
	// least 2n (someone must learn enough to compute the last task...
	// in fact every block must reach at least one worker).
	const n, p = 30, 8
	s := NewDynamic(n, p, rng.New(5))
	_, blocks := drain(t, s, nil)
	if blocks > 2*p*n {
		t.Fatalf("DynamicOuter comm %d exceeds 2pn = %d", blocks, 2*p*n)
	}
	if blocks < 2*n {
		t.Fatalf("DynamicOuter comm %d below 2n = %d", blocks, 2*n)
	}
}

func TestEveryBlockReachesSomeWorker(t *testing.T) {
	// All n blocks of a and of b must be shipped at least once in any
	// complete run (someone must compute each row/column).
	const n, p = 22, 5
	for name, build := range builders(n, p) {
		s := build(rng.New(9))
		inst := instanceOf(s)
		drain(t, s, nil)
		for i := 0; i < n; i++ {
			aOwned, bOwned := false, false
			for w := 0; w < p; w++ {
				aOwned = aOwned || inst.Own[0][w].Test(i)
				bOwned = bOwned || inst.Own[1][w].Test(i)
			}
			if !aOwned || !bOwned {
				t.Fatalf("%s: block %d never shipped (a:%v b:%v)", name, i, aOwned, bOwned)
			}
		}
	}
}

func TestTwoPhasesExtremes(t *testing.T) {
	const n, p = 20, 4
	// Threshold 0: never switches, behaves like DynamicOuter.
	s0 := flat.NewTwoPhases(Kernel, n, p, 0, rng.New(1))
	drain(t, s0, func(_ int, a core.Assignment) {
		if a.Blocks > 2 {
			t.Fatalf("threshold-0 two-phase shipped %d blocks in one step", a.Blocks)
		}
	})
	if s0.Phase1Tasks() != n*n {
		t.Fatal("threshold-0 scheduler switched to phase 2")
	}
	// Threshold n²: switches immediately, behaves like RandomOuter.
	s1 := flat.NewTwoPhases(Kernel, n, p, n*n, rng.New(2))
	drain(t, s1, func(_ int, a core.Assignment) {
		if len(a.Tasks) != 1 {
			t.Fatalf("threshold-n² two-phase returned %d tasks in one assignment", len(a.Tasks))
		}
	})
	if got := s1.Phase1Tasks(); got != 0 {
		t.Fatalf("threshold-n² scheduler reports %d phase-1 tasks", got)
	}
}

func TestSimulationIntegration(t *testing.T) {
	// Full stack: all strategies through the event simulator with
	// heterogeneous speeds; data-aware must beat random comm.
	const n, p = 50, 10
	root := rng.New(123)
	s := speeds.UniformRange(p, 10, 100, root.Split())

	metrics := map[string]*sim.Metrics{}
	for name, build := range builders(n, p) {
		m := sim.Run(build(root.Split()), speeds.NewFixed(s))
		metrics[name] = m
		total := 0
		for _, v := range m.TasksPer {
			total += v
		}
		if total != n*n {
			t.Fatalf("%s: simulator processed %d tasks, want %d", name, total, n*n)
		}
		if m.Makespan <= 0 {
			t.Fatalf("%s: non-positive makespan", name)
		}
	}
	if metrics["DynamicOuter"].Blocks >= metrics["RandomOuter"].Blocks {
		t.Fatalf("DynamicOuter (%d blocks) did not beat RandomOuter (%d blocks)",
			metrics["DynamicOuter"].Blocks, metrics["RandomOuter"].Blocks)
	}
	if metrics["DynamicOuter2Phases"].Blocks >= metrics["RandomOuter"].Blocks {
		t.Fatal("two-phase strategy did not beat RandomOuter")
	}
}

func TestLoadBalanceUnderSimulation(t *testing.T) {
	// Demand-driven allocation keeps the work split close to
	// speed-proportional for single-task strategies.
	const n, p = 60, 8
	root := rng.New(321)
	s := speeds.UniformRange(p, 10, 100, root.Split())
	m := sim.Run(flat.NewRandom(Kernel, n, p, root.Split()), speeds.NewFixed(s))
	if imb := m.Imbalance(speeds.NewFixed(s)); imb > 0.10 {
		t.Fatalf("load imbalance %.3f exceeds 10%% for RandomOuter with %d tasks", imb, n*n)
	}
}

func TestDynamic1DEveryTaskOnceAndCommBound(t *testing.T) {
	const n, p = 35, 6
	s := NewDynamic1D(n, p, rng.New(21))
	seen := make(map[core.Task]bool, n*n)
	tasks, blocks := drain(t, s, func(w int, a core.Assignment) {
		for _, task := range a.Tasks {
			if seen[task] {
				t.Fatalf("Dynamic1D assigned task %d twice", task)
			}
			seen[task] = true
			i, j := Decode(task, n)
			if !s.Own[0][w].Test(i) || !s.Own[1][w].Test(j) {
				t.Fatalf("Dynamic1D: worker %d lacks inputs of (%d,%d)", w, i, j)
			}
		}
	})
	if tasks != n*n {
		t.Fatalf("Dynamic1D processed %d tasks, want %d", tasks, n*n)
	}
	// Comm bound: each worker receives at most n row blocks and n
	// column blocks.
	if blocks > 2*p*n {
		t.Fatalf("Dynamic1D comm %d exceeds 2pn", blocks)
	}
	// And with whole-row allocation at least one worker holds all of
	// b only if it processed scattered rows; total comm is at least
	// n (rows) + n (columns somewhere).
	if blocks < 2*n {
		t.Fatalf("Dynamic1D comm %d below 2n", blocks)
	}
}

func TestDynamic1DWorseThan2DForLargeP(t *testing.T) {
	// The point of the strategy: ignoring the 2D structure costs
	// ~(p+1)n blocks, far above DynamicOuter for large p.
	const n, p = 60, 40
	root := rng.New(22)
	s := speeds.UniformRange(p, 10, 100, root.Split())
	oneD := sim.Run(NewDynamic1D(n, p, root.Split()), speeds.NewFixed(s))
	twoD := sim.Run(NewDynamic(n, p, root.Split()), speeds.NewFixed(s))
	if oneD.Blocks <= twoD.Blocks {
		t.Fatalf("1D comm %d not worse than 2D %d at p=%d", oneD.Blocks, twoD.Blocks, p)
	}
	// 1D comm should be in the vicinity of (p+1)·n (each worker ends
	// up with most of b): sanity-check the order of magnitude.
	if oneD.Blocks < p*n/2 {
		t.Fatalf("1D comm %d unexpectedly low (< pn/2 = %d)", oneD.Blocks, p*n/2)
	}
}

func TestTwoPhasesAutoIsSpeedAgnosticAndCompetitive(t *testing.T) {
	// The §3.6 constructor needs only (n, p); its communication must
	// be within a few percent of the per-platform tuned scheduler.
	const n, p = 60, 10
	root := rng.New(31)
	s := speeds.UniformRange(p, 10, 100, root.Split())

	auto := sim.Run(flat.NewTwoPhasesAuto(Kernel, n, p, rng.New(77)), speeds.NewFixed(s))
	// Per-platform tuning for comparison.
	rs := speeds.Relative(s)
	beta, _ := analysis.OptimalBetaOuter(rs, n)
	tuned := sim.Run(flat.NewTwoPhases(Kernel, n, p, Kernel.ThresholdFromBeta(beta, n), rng.New(77)), speeds.NewFixed(s))

	if float64(auto.Blocks) > 1.10*float64(tuned.Blocks) {
		t.Fatalf("speed-agnostic scheduler shipped %d blocks vs %d for tuned (>10%% worse)",
			auto.Blocks, tuned.Blocks)
	}
}
