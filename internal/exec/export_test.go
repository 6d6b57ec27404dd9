package exec

import (
	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/linalg"
	"hetsched/internal/lu"
	"hetsched/internal/outer"
	"hetsched/internal/rng"
)

// The outer-product and LU executors have no caller outside the tests,
// which verify them against the reference kernels.

// RunOuter executes the outer product M = a·bᵀ under sched and returns
// the computed blocked matrix. Distinct tasks write distinct M blocks,
// so workers write into the shared result directly.
func RunOuter(sched core.Scheduler, a, b *linalg.BlockedVector, opts Options) (*linalg.BlockedMatrix, *Result) {
	if a.N != b.N || a.L != b.L {
		panic("exec: vector shape mismatch")
	}
	n := a.N
	m := linalg.NewBlockedMatrix(n, a.L)
	res := run(sched, opts, func(w int, t core.Task) {
		i, j := outer.Decode(t, n)
		linalg.OuterUpdate(a.Blocks[i], b.Blocks[j], m.Block(i, j))
	})
	return m, res
}

// RunLU factors the blocked diagonally dominant matrix a in place into
// its packed L\U factors using real worker goroutines driven by the
// generic DAG driver — the LU counterpart of RunCholesky, sharing the
// same master loop.
func RunLU(a *linalg.BlockedMatrix, workers int, policy dag.Policy, r *rng.PCG) (*Result, error) {
	drv := dag.NewDriver(lu.Kernel, a.N, workers, policy, r)
	return runDriver(drv, Options{Workers: workers}, func(_ int, ct core.Task) error { return lu.Apply(ct, a) })
}
