package exec

import (
	"reflect"
	"testing"
	"time"

	"hetsched/internal/cholesky"
	"hetsched/internal/core"
	"hetsched/internal/dag"
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
		"RandomOuter":  func(r *rng.PCG) core.Scheduler { return outer.NewRandom(n, p, r) },
		"SortedOuter":  func(r *rng.PCG) core.Scheduler { return outer.NewSorted(n, p, r) },
		"DynamicOuter": func(r *rng.PCG) core.Scheduler { return outer.NewDynamic(n, p, r) },
		"DynamicOuter2Phases": func(r *rng.PCG) core.Scheduler {
			return outer.NewTwoPhases(n, p, outer.ThresholdFromBeta(4, n), r)
		},
	}
}

func matrixBuilders(n, p int) map[string]func(r *rng.PCG) core.Scheduler {
	return map[string]func(r *rng.PCG) core.Scheduler{
		"RandomMatrix":  func(r *rng.PCG) core.Scheduler { return matmul.NewRandom(n, p, r) },
		"SortedMatrix":  func(r *rng.PCG) core.Scheduler { return matmul.NewSorted(n, p, r) },
		"DynamicMatrix": func(r *rng.PCG) core.Scheduler { return matmul.NewDynamic(n, p, r) },
		"DynamicMatrix2Phases": func(r *rng.PCG) core.Scheduler {
			return matmul.NewTwoPhases(n, p, matmul.ThresholdFromBeta(3, n), r)
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
	_, res := RunOuter(outer.NewRandom(n, 2, root.Split()), a, b, Options{
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
	RunOuter(outer.NewRandom(4, 3, root), a, b, Options{Workers: 2})
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
	RunOuter(outer.NewRandom(4, 2, root), a, b, Options{Workers: 2})
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

func TestRunCholeskyCorrectAllPolicies(t *testing.T) {
	const n, l, p = 8, 4, 4
	root := rng.New(8)
	a := linalg.NewBlockedMatrix(n, l)
	linalg.RandomSPD(a, root.Split())

	for _, pol := range []cholesky.Policy{
		cholesky.RandomReady, cholesky.LocalityReady, cholesky.CriticalPathReady,
	} {
		work := linalg.NewBlockedMatrix(n, l)
		for i, blk := range a.Blocks {
			copy(work.Blocks[i].Data, blk.Data)
		}
		res, err := RunCholesky(work, p, pol, root.Split())
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		total := 0
		for _, v := range res.TasksPer {
			total += v
		}
		if total != cholesky.TaskCount(n) {
			t.Fatalf("%v: executed %d tasks, want %d", pol, total, cholesky.TaskCount(n))
		}
		if resid := linalg.CholeskyResidual(a, work); resid > 1e-8 {
			t.Fatalf("%v: |A − L·Lᵀ| = %g", pol, resid)
		}
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
	if _, err := RunCholesky(a, p, cholesky.RandomReady, root.Split()); err == nil {
		t.Fatal("indefinite matrix did not produce an error")
	}
}

func TestRunCholeskySingleWorkerMatchesSerial(t *testing.T) {
	const n, l = 6, 3
	root := rng.New(10)
	a := linalg.NewBlockedMatrix(n, l)
	linalg.RandomSPD(a, root.Split())

	concurrent := linalg.NewBlockedMatrix(n, l)
	serial := linalg.NewBlockedMatrix(n, l)
	for i, blk := range a.Blocks {
		copy(concurrent.Blocks[i].Data, blk.Data)
		copy(serial.Blocks[i].Data, blk.Data)
	}
	if _, err := RunCholesky(concurrent, 1, cholesky.LocalityReady, root.Split()); err != nil {
		t.Fatal(err)
	}
	if err := linalg.TiledCholesky(serial); err != nil {
		t.Fatal(err)
	}
	if d := concurrent.MaxAbsDiff(serial); d > 1e-9 {
		t.Fatalf("single-worker concurrent result differs from serial by %g", d)
	}
}

func TestRunLUCorrectAllPolicies(t *testing.T) {
	const n, l, p = 8, 4, 4
	root := rng.New(11)
	a := linalg.NewBlockedMatrix(n, l)
	linalg.RandomDominant(a, root.Split())

	for _, pol := range []lu.Policy{lu.RandomReady, lu.LocalityReady, lu.CriticalPathReady} {
		work := linalg.NewBlockedMatrix(n, l)
		for i, blk := range a.Blocks {
			copy(work.Blocks[i].Data, blk.Data)
		}
		res, err := RunLU(work, p, pol, root.Split())
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		total := 0
		for _, v := range res.TasksPer {
			total += v
		}
		if total != lu.TaskCount(n) {
			t.Fatalf("%v: executed %d tasks, want %d", pol, total, lu.TaskCount(n))
		}
		if resid := linalg.LUResidual(a, work); resid > 1e-8 {
			t.Fatalf("%v: |A − L·U| = %g", pol, resid)
		}
	}
}

func TestRunLUMatchesSerial(t *testing.T) {
	const n, l = 5, 3
	root := rng.New(12)
	a := linalg.NewBlockedMatrix(n, l)
	linalg.RandomDominant(a, root.Split())

	concurrent := linalg.NewBlockedMatrix(n, l)
	serial := linalg.NewBlockedMatrix(n, l)
	for i, blk := range a.Blocks {
		copy(concurrent.Blocks[i].Data, blk.Data)
		copy(serial.Blocks[i].Data, blk.Data)
	}
	if _, err := RunLU(concurrent, 3, lu.CriticalPathReady, root.Split()); err != nil {
		t.Fatal(err)
	}
	if err := linalg.TiledLU(serial); err != nil {
		t.Fatal(err)
	}
	// Trailing updates commute but are applied in different orders, so
	// allow a tiny float tolerance rather than exact equality.
	if d := concurrent.MaxAbsDiff(serial); d > 1e-9 {
		t.Fatalf("concurrent LU differs from serial by %g", d)
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
		t.Run("cholesky-"+pol.String(), func(t *testing.T) {
			a := linalg.NewBlockedMatrix(n, l)
			linalg.RandomSPD(a, rng.New(1))
			res, err := RunCholesky(a, 1, pol, rng.New(2))
			if err != nil {
				t.Fatal(err)
			}
			same(t, res, sim.RunDriver(cholesky.NewDriver(n, 1, pol, rng.New(2)), one))
		})
		t.Run("lu-"+pol.String(), func(t *testing.T) {
			a := linalg.NewBlockedMatrix(n, l)
			linalg.RandomDominant(a, rng.New(1))
			res, err := RunLU(a, 1, pol, rng.New(2))
			if err != nil {
				t.Fatal(err)
			}
			same(t, res, sim.RunDriver(lu.NewDriver(n, 1, pol, rng.New(2)), one))
		})
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
