package exec

import (
	"reflect"
	"testing"
	"time"

	"hetsched/internal/cholesky"
	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/flat"
	"hetsched/internal/linalg"
	"hetsched/internal/lu"
	"hetsched/internal/matmul"
	"hetsched/internal/outer"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

func outerBuilders(n, p int) map[string]func(r *rng.PCG) core.Scheduler {
	return map[string]func(r *rng.PCG) core.Scheduler{
		"RandomOuter":  func(r *rng.PCG) core.Scheduler { return flat.NewRandom(outer.Kernel, n, p, r) },
		"SortedOuter":  func(r *rng.PCG) core.Scheduler { return flat.NewSorted(outer.Kernel, n, p, r) },
		"DynamicOuter": func(r *rng.PCG) core.Scheduler { return outer.NewDynamic(n, p, r) },
		"DynamicOuter2Phases": func(r *rng.PCG) core.Scheduler {
			return flat.NewTwoPhases(outer.Kernel, n, p, outer.Kernel.ThresholdFromBeta(4, n), r)
		},
	}
}

func matrixBuilders(n, p int) map[string]func(r *rng.PCG) core.Scheduler {
	return map[string]func(r *rng.PCG) core.Scheduler{
		"RandomMatrix":  func(r *rng.PCG) core.Scheduler { return flat.NewRandom(matmul.Kernel, n, p, r) },
		"SortedMatrix":  func(r *rng.PCG) core.Scheduler { return flat.NewSorted(matmul.Kernel, n, p, r) },
		"DynamicMatrix": func(r *rng.PCG) core.Scheduler { return matmul.NewDynamic(n, p, r) },
		"DynamicMatrix2Phases": func(r *rng.PCG) core.Scheduler {
			return flat.NewTwoPhases(matmul.Kernel, n, p, matmul.Kernel.ThresholdFromBeta(3, n), r)
		},
	}
}

func TestRunOuterCorrectAllStrategies(t *testing.T) {
	const n, l, p = 12, 4, 5
	root := rng.New(1)
	a := linalg.NewBlockedVector(n, l)
	b := linalg.NewBlockedVector(n, l)
	a.Fill(root.Split())
	b.Fill(root.Split())
	ref := linalg.ReferenceOuter(a, b)

	for name, build := range outerBuilders(n, p) {
		m, res := RunOuter(build(root.Split()), a, b, Options{Workers: p})
		if d := m.MaxAbsDiff(ref); d > 1e-12 {
			t.Fatalf("%s: result differs from reference by %g", name, d)
		}
		total := 0
		for _, v := range res.TasksPer {
			total += v
		}
		if total != n*n {
			t.Fatalf("%s: %d tasks executed, want %d", name, total, n*n)
		}
		if res.Blocks <= 0 {
			t.Fatalf("%s: no communication recorded", name)
		}
	}
}

func TestRunGemmCorrectAllStrategies(t *testing.T) {
	const n, l, p = 8, 4, 4
	root := rng.New(2)
	a := linalg.NewBlockedMatrix(n, l)
	b := linalg.NewBlockedMatrix(n, l)
	a.Fill(root.Split())
	b.Fill(root.Split())
	ref := linalg.ReferenceGemm(a, b)

	for name, build := range matrixBuilders(n, p) {
		c, res := RunGemm(build(root.Split()), a, b, Options{Workers: p})
		if d := c.MaxAbsDiff(ref); d > 1e-9 {
			t.Fatalf("%s: result differs from reference by %g", name, d)
		}
		total := 0
		for _, v := range res.TasksPer {
			total += v
		}
		if total != n*n*n {
			t.Fatalf("%s: %d tasks executed, want %d", name, total, n*n*n)
		}
	}
}

func TestPerWorkerAccountingSums(t *testing.T) {
	const n, l, p = 10, 2, 3
	root := rng.New(3)
	a := linalg.NewBlockedVector(n, l)
	b := linalg.NewBlockedVector(n, l)
	a.Fill(root.Split())
	b.Fill(root.Split())
	_, res := RunOuter(outer.NewDynamic(n, p, root.Split()), a, b, Options{Workers: p})
	sumBlocks, sumTasks := 0, 0
	for w := 0; w < p; w++ {
		sumBlocks += res.BlocksPer[w]
		sumTasks += res.TasksPer[w]
	}
	if sumBlocks != res.Blocks {
		t.Fatalf("per-worker blocks sum %d != total %d", sumBlocks, res.Blocks)
	}
	if sumTasks != n*n {
		t.Fatalf("per-worker tasks sum %d != %d", sumTasks, n*n)
	}
	if res.Elapsed <= 0 {
		t.Fatal("non-positive elapsed time")
	}
}

func TestThrottledSpeedsShiftWork(t *testing.T) {
	// With strong throttling, a 20x faster worker should take several
	// times more tasks than the slow one under demand-driven
	// allocation. The throttle durations are chosen to dwarf the
	// master round-trip even under the race detector.
	const n, l = 24, 2
	root := rng.New(4)
	a := linalg.NewBlockedVector(n, l)
	b := linalg.NewBlockedVector(n, l)
	a.Fill(root.Split())
	b.Fill(root.Split())
	sp := []float64{1, 20}
	_, res := RunOuter(flat.NewRandom(outer.Kernel, n, 2, root.Split()), a, b, Options{
		Workers:  2,
		Speeds:   sp,
		TaskCost: 2 * time.Millisecond,
	})
	if res.TasksPer[1] < 4*res.TasksPer[0] {
		t.Fatalf("fast worker did %d tasks, slow did %d; expected at least a 4x gap",
			res.TasksPer[1], res.TasksPer[0])
	}
}

func TestWorkerCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched worker count did not panic")
		}
	}()
	root := rng.New(5)
	a := linalg.NewBlockedVector(4, 2)
	b := linalg.NewBlockedVector(4, 2)
	RunOuter(flat.NewRandom(outer.Kernel, 4, 3, root), a, b, Options{Workers: 2})
}

func TestShapeMismatchPanics(t *testing.T) {
	root := rng.New(6)
	defer func() {
		if recover() == nil {
			t.Fatal("vector shape mismatch did not panic")
		}
	}()
	a := linalg.NewBlockedVector(4, 2)
	b := linalg.NewBlockedVector(5, 2)
	RunOuter(flat.NewRandom(outer.Kernel, 4, 2, root), a, b, Options{Workers: 2})
}

func TestManyWorkersSmallProblem(t *testing.T) {
	// More workers than rows: some workers get nothing; must still
	// terminate and be correct.
	const n, l, p = 3, 2, 16
	root := rng.New(7)
	a := linalg.NewBlockedVector(n, l)
	b := linalg.NewBlockedVector(n, l)
	a.Fill(root.Split())
	b.Fill(root.Split())
	ref := linalg.ReferenceOuter(a, b)
	m, _ := RunOuter(outer.NewDynamic(n, p, root.Split()), a, b, Options{Workers: p})
	if d := m.MaxAbsDiff(ref); d > 1e-12 {
		t.Fatalf("oversubscribed run differs from reference by %g", d)
	}
}

func BenchmarkRunGemmDynamic(b *testing.B) {
	const n, l, p = 8, 16, 4
	root := rng.New(1)
	a := linalg.NewBlockedMatrix(n, l)
	bb := linalg.NewBlockedMatrix(n, l)
	a.Fill(root.Split())
	bb.Fill(root.Split())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := matmul.NewDynamic(n, p, root.Split())
		RunGemm(sched, a, bb, Options{Workers: p})
	}
}

// dagKernels are the DAG kernels with numerics, each with the serial
// factorization a one-worker run must reproduce and the seeds, shapes
// and policy of the tests below.
var dagKernels = []struct {
	name   string
	k      *dag.Kernel
	serial func(*linalg.BlockedMatrix) error
	// correctSeed seeds TestRunDAGCorrectAllPolicies; the rest are
	// TestRunDAGMatchesSerial's run.
	correctSeed      uint64
	serialSeed       uint64
	serialN, workers int
	policy           dag.Policy
}{
	{"cholesky", cholesky.Kernel, linalg.TiledCholesky, 8, 10, 6, 1, dag.LocalityReady},
	{"lu", lu.Kernel, linalg.TiledLU, 11, 12, 5, 3, dag.CriticalPathReady},
}

func TestRunDAGCorrectAllPolicies(t *testing.T) {
	const n, l, p = 8, 4, 4
	for _, kc := range dagKernels {
		t.Run(kc.name, func(t *testing.T) {
			root := rng.New(kc.correctSeed)
			a := linalg.NewBlockedMatrix(n, l)
			kc.k.Numerics.Fill(a, root.Split())

			for _, pol := range []dag.Policy{dag.RandomReady, dag.LocalityReady, dag.CriticalPathReady} {
				work := a.Clone()
				res, err := RunDAG(kc.k, work, p, pol, root.Split())
				if err != nil {
					t.Fatalf("%v: %v", pol, err)
				}
				total := 0
				for _, v := range res.TasksPer {
					total += v
				}
				if total != kc.k.Tasks(n) {
					t.Fatalf("%v: executed %d tasks, want %d", pol, total, kc.k.Tasks(n))
				}
				if resid := kc.k.Numerics.Residual(a, work); resid > 1e-8 {
					t.Fatalf("%v: %s = %g", pol, kc.k.Numerics.Label, resid)
				}
			}
		})
	}
}

func TestRunCholeskyRejectsIndefinite(t *testing.T) {
	const n, l, p = 3, 2, 2
	root := rng.New(9)
	a := linalg.NewBlockedMatrix(n, l)
	// A negative diagonal makes the matrix indefinite.
	for i := 0; i < n*l; i++ {
		a.Block(i/l, i/l).Set(i%l, i%l, -1)
	}
	if _, err := RunDAG(cholesky.Kernel, a, p, dag.RandomReady, root.Split()); err == nil {
		t.Fatal("indefinite matrix did not produce an error")
	}
}

func TestRunDAGMatchesSerial(t *testing.T) {
	const l = 3
	for _, kc := range dagKernels {
		t.Run(kc.name, func(t *testing.T) {
			root := rng.New(kc.serialSeed)
			a := linalg.NewBlockedMatrix(kc.serialN, l)
			kc.k.Numerics.Fill(a, root.Split())

			concurrent, serial := a.Clone(), a.Clone()
			if _, err := RunDAG(kc.k, concurrent, kc.workers, kc.policy, root.Split()); err != nil {
				t.Fatal(err)
			}
			if err := kc.serial(serial); err != nil {
				t.Fatal(err)
			}
			// With more than one worker, trailing updates commute but
			// are applied in different orders, so allow a tiny float
			// tolerance rather than exact equality.
			if d := concurrent.MaxAbsDiff(serial); d > 1e-9 {
				t.Fatalf("%d-worker concurrent result differs from serial by %g", kc.workers, d)
			}
		})
	}
}

// TestExecMatchesSimOneWorker runs the runtime and the simulator on
// identically seeded drivers with one worker, where the two substrates
// make the same requests in the same order: both step core.Master, so
// their ledgers must agree exactly.
func TestExecMatchesSimOneWorker(t *testing.T) {
	one := speeds.NewFixed([]float64{1})
	same := func(t *testing.T, res *Result, m *sim.Metrics) {
		t.Helper()
		if res.Blocks != m.Blocks || res.Requests != m.Requests || !reflect.DeepEqual(res.TasksPer, m.TasksPer) {
			t.Fatalf("runtime blocks %d, requests %d, tasks %v; simulator %d, %d, %v",
				res.Blocks, res.Requests, res.TasksPer, m.Blocks, m.Requests, m.TasksPer)
		}
	}
	const n, l = 6, 2
	for _, pol := range []dag.Policy{dag.RandomReady, dag.LocalityReady, dag.CriticalPathReady} {
		for _, kc := range dagKernels {
			t.Run(kc.name+"-"+pol.String(), func(t *testing.T) {
				a := linalg.NewBlockedMatrix(n, l)
				kc.k.Numerics.Fill(a, rng.New(1))
				res, err := RunDAG(kc.k, a, 1, pol, rng.New(2))
				if err != nil {
					t.Fatal(err)
				}
				same(t, res, sim.RunDriver(dag.NewDriver(kc.k, n, 1, pol, rng.New(2)), one))
			})
		}
	}
	for name, build := range matrixBuilders(n, 1) {
		t.Run("gemm-"+name, func(t *testing.T) {
			a := linalg.NewBlockedMatrix(n, l)
			b := linalg.NewBlockedMatrix(n, l)
			a.Fill(rng.New(1))
			b.Fill(rng.New(2))
			_, res := RunGemm(build(rng.New(3)), a, b, Options{Workers: 1})
			same(t, res, sim.Run(build(rng.New(3)), one))
		})
	}
}
