// Package cholesky implements the paper's proposed future-work
// extension (§5): dynamic, data-aware scheduling for a kernel with
// task dependencies — the tiled Cholesky factorization A = L·Lᵀ.
//
// Unlike the outer product and matrix multiplication, Cholesky tasks
// form a DAG: POTRF(k) factors the diagonal tile, TRSM(i,k) solves the
// panel tiles below it, and UPDATE(i,j,k) applies rank-l updates to
// the trailing submatrix (SYRK on diagonal tiles, GEMM otherwise).
// The scheduler therefore maintains a ready set and workers may have
// to wait; the demand-driven engine here extends the paper's model
// with task readiness and per-tile write serialization.
//
// The package is one dag.Kernel value: the task graph and its numerics
// (each task's tile kernel, which Kernel.Replay runs a schedule of).
// Every substrate drives dag.NewDriver(Kernel, n, …): the virtual-time
// simulator (sim.RunDriver), the real goroutine runtime (exec.RunDAG)
// and the scheduler service (kernel "cholesky").
package cholesky

import (
	"fmt"

	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/linalg"
)

// Task kinds of the tiled right-looking Cholesky factorization.
const (
	potrf  dag.Kind = iota // factor diagonal tile (K,K)
	trsm                   // panel solve of tile (I,K) against L(K,K)
	update                 // trailing update of tile (I,J) with L(I,K)·L(J,K)ᵀ (SYRK when I==J)
)

// Kernel is the tiled Cholesky factorization on the generic engine.
var Kernel = &dag.Kernel{
	Name:         "Cholesky",
	Cost:         cost,
	Format:       format,
	Tasks:        taskCount,
	TotalWork:    totalWork,
	CriticalPath: criticalPath,
	New:          newProgress,
	Numerics: &dag.Numerics{
		Apply:    apply,
		Fill:     linalg.RandomSPD,
		Residual: linalg.CholeskyResidual,
		Label:    "|A − L·Lᵀ|",
	},
}

// cost is the relative cost of a task in GEMM-equivalent flop units
// (POTRF l³/3, TRSM l³, SYRK l³, GEMM 2l³, normalized by l³).
func cost(t dag.Task) float64 {
	switch t.Kind {
	case potrf:
		return 1.0 / 3
	case trsm:
		return 1
	case update:
		if t.I == t.J {
			return 1
		}
		return 2
	}
	panic("cholesky: unknown task kind")
}

func format(t dag.Task) string {
	switch t.Kind {
	case potrf:
		return fmt.Sprintf("POTRF(%d)", t.K)
	case trsm:
		return fmt.Sprintf("TRSM(%d,%d)", t.I, t.K)
	default:
		return fmt.Sprintf("UPDATE(%d,%d,%d)", t.I, t.J, t.K)
	}
}

// taskCount is the number of tasks of an n-tile factorization: n
// POTRFs, n(n−1)/2 TRSMs and Σ_k (n−k−1)(n−k)/2 updates.
func taskCount(n int) int {
	upd := 0
	for k := 0; k < n; k++ {
		m := n - k - 1
		upd += m * (m + 1) / 2
	}
	return n + n*(n-1)/2 + upd
}

// totalWork is the total GEMM-equivalent work of an n-tile
// factorization.
func totalWork(n int) float64 {
	w := 0.0
	for k := 0; k < n; k++ {
		w += cost(dag.Task{Kind: potrf, K: k})
		for i := k + 1; i < n; i++ {
			w += cost(dag.Task{Kind: trsm, I: i, K: k})
			for j := k + 1; j <= i; j++ {
				w += cost(dag.Task{Kind: update, I: i, J: j, K: k})
			}
		}
	}
	return w
}

// criticalPath is the length (in GEMM-equivalent units) of the longest
// dependency chain: POTRF(0) → TRSM(1,0) → UPDATE(1,1,0) → POTRF(1) → …
func criticalPath(n int) float64 {
	cp := 0.0
	for k := 0; k < n; k++ {
		cp += cost(dag.Task{Kind: potrf, K: k})
		if k+1 < n {
			cp += cost(dag.Task{Kind: trsm, I: k + 1, K: k})
			cp += cost(dag.Task{Kind: update, I: k + 1, J: k + 1, K: k})
		}
	}
	return cp
}

// apply runs the tile kernel of the encoded task ct on m in place.
// POTRF(k) also zeroes the upper tiles of row k, which no other task
// reads or writes, so a completed factorization leaves a clean L.
func apply(ct core.Task, m *linalg.BlockedMatrix) error {
	t := dag.DecodeTask(ct, m.N)
	switch t.Kind {
	case potrf:
		if err := linalg.CholBlock(m.Block(t.K, t.K)); err != nil {
			return fmt.Errorf("cholesky: %s: %w", format(t), err)
		}
		for j := t.K + 1; j < m.N; j++ {
			clear(m.Block(t.K, j).Data)
		}
	case trsm:
		linalg.TrsmBlock(m.Block(t.I, t.K), m.Block(t.K, t.K))
	case update:
		if t.I == t.J {
			linalg.SyrkBlock(m.Block(t.I, t.I), m.Block(t.I, t.K))
		} else {
			linalg.GemmTransBlock(m.Block(t.I, t.J), m.Block(t.I, t.K), m.Block(t.J, t.K))
		}
	default:
		return fmt.Errorf("cholesky: unknown task kind %d", t.Kind)
	}
	return nil
}
