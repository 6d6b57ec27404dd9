package exec

import (
	"hetsched/internal/cholesky"
	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/linalg"
	"hetsched/internal/rng"
)

// RunCholesky factors the blocked SPD matrix a in place into its lower
// Cholesky factor using real worker goroutines driven by the generic
// DAG driver — the concurrent, shared-memory incarnation of the
// paper's future-work kernel, running on the same master loop as the
// flat kernels.
//
// Unlike the kernels without dependencies, a worker may find no
// schedulable task; it then parks until a completion frees one. Write
// safety comes from the coordinator's per-tile write lock (one writing
// task in flight per tile) and from the DAG itself (input tiles are
// final when read); the tests run this under the race detector and
// verify the factorization numerically against the input matrix.
func RunCholesky(a *linalg.BlockedMatrix, workers int, policy dag.Policy, r *rng.PCG) (*Result, error) {
	drv := dag.NewDriver(cholesky.Kernel, a.N, workers, policy, r)
	return runDriver(drv, Options{Workers: workers}, func(_ int, ct core.Task) error { return cholesky.Apply(ct, a) })
}
