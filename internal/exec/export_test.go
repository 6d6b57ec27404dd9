package exec

import (
	"hetsched/internal/core"
	"hetsched/internal/linalg"
	"hetsched/internal/outer"
)

// The outer-product executor has no caller outside the tests, which
// verify it against the reference kernel.

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
