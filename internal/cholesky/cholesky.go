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
// The package is a dag.Kernel definition plus its numerics: NewKernel
// describes the task graph (tile reads, writes, costs, readiness
// progression), Apply runs one task's tile kernel, and the generic
// engine in internal/dag supplies the ready set, the record of what
// each worker holds with re-ship accounting, and the ready-task
// selection policies. Every substrate drives dag.NewDriver(NewKernel(n),
// …): the virtual-time simulator (sim.RunDriver, whose schedule Replay
// verifies), the real goroutine runtime (exec.RunCholesky) and the
// scheduler service (kernel "cholesky").
package cholesky

import "fmt"

// Kind enumerates the tile kernels.
type Kind uint8

// Task kinds of the tiled right-looking Cholesky factorization.
const (
	Potrf  Kind = iota // factor diagonal tile (K,K)
	Trsm               // panel solve of tile (I,K) against L(K,K)
	Update             // trailing update of tile (I,J) with L(I,K)·L(J,K)ᵀ (SYRK when I==J)
)

func (k Kind) String() string {
	switch k {
	case Potrf:
		return "POTRF"
	case Trsm:
		return "TRSM"
	case Update:
		return "UPDATE"
	}
	return "?"
}

// Task is one tile kernel invocation.
type Task struct {
	Kind    Kind
	I, J, K int
}

// Cost returns the relative cost of the task in GEMM-equivalent flop
// units (POTRF l³/3, TRSM l³, SYRK l³, GEMM 2l³, normalized by l³).
func (t Task) Cost() float64 {
	switch t.Kind {
	case Potrf:
		return 1.0 / 3
	case Trsm:
		return 1
	case Update:
		if t.I == t.J {
			return 1
		}
		return 2
	}
	panic("cholesky: unknown task kind")
}

func (t Task) String() string {
	switch t.Kind {
	case Potrf:
		return fmt.Sprintf("POTRF(%d)", t.K)
	case Trsm:
		return fmt.Sprintf("TRSM(%d,%d)", t.I, t.K)
	default:
		return fmt.Sprintf("UPDATE(%d,%d,%d)", t.I, t.J, t.K)
	}
}

// TaskCount returns the number of tasks of an n-tile factorization:
// n POTRFs, n(n−1)/2 TRSMs and Σ_k (n−k−1)(n−k)/2 updates.
func TaskCount(n int) int {
	potrf := n
	trsm := n * (n - 1) / 2
	upd := 0
	for k := 0; k < n; k++ {
		m := n - k - 1
		upd += m * (m + 1) / 2
	}
	return potrf + trsm + upd
}

// TotalWork returns the total GEMM-equivalent work of an n-tile
// factorization.
func TotalWork(n int) float64 {
	w := 0.0
	for k := 0; k < n; k++ {
		w += Task{Kind: Potrf, K: k}.Cost()
		for i := k + 1; i < n; i++ {
			w += Task{Kind: Trsm, I: i, K: k}.Cost()
			for j := k + 1; j <= i; j++ {
				w += Task{Kind: Update, I: i, J: j, K: k}.Cost()
			}
		}
	}
	return w
}

// CriticalPath returns the length (in GEMM-equivalent units) of the
// longest dependency chain: POTRF(0) → TRSM(1,0) → UPDATE(1,1,0) →
// POTRF(1) → …
func CriticalPath(n int) float64 {
	cp := 0.0
	for k := 0; k < n; k++ {
		cp += Task{Kind: Potrf, K: k}.Cost()
		if k+1 < n {
			cp += Task{Kind: Trsm, I: k + 1, K: k}.Cost()
			cp += Task{Kind: Update, I: k + 1, J: k + 1, K: k}.Cost()
		}
	}
	return cp
}
