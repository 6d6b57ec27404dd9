// Package qr implements the third dependency-aware kernel of the
// paper's future-work direction (§5): demand-driven, data-aware
// scheduling of the tiled QR factorization A = Q·R with a flat
// reduction tree (the PLASMA-style GEQRT / TSQRT / ORMQR / TSMQR task
// graph). It exists to prove the generality of the internal/dag
// engine: unlike Cholesky and LU, the coupled QR kernels write **two**
// tiles each — TSQRT updates the panel R tile and the subdiagonal V
// tile, TSMQR updates a row-k tile and a trailing tile — so the
// kernel exercises the engine's multi-output write serialization and
// re-ship accounting.
//
// The kernel is simulation-level: dag.NewDriver(NewKernel(n), …) runs
// it under the virtual-time simulator (sim.RunDriver) and the
// scheduler service (kernel "qr"), with communication volume, makespan
// and wait-time accounting; no numeric tile kernels are attached.
//
// Task graph at step k (sequential TS chain down each panel):
//
//	GEQRT(k)      factors tile (k,k) into V/R.
//	ORMQR(k,j)    applies Q(k)ᵀ to tile (k,j), j > k.
//	TSQRT(i,k)    folds tile (i,k) into the panel R, i > k, chained in i.
//	TSMQR(i,j,k)  applies the TSQRT(i,k) reflectors to tiles (k,j) and
//	              (i,j), chained in i for each column j.
package qr

import "fmt"

// Kind enumerates the tile kernels.
type Kind uint8

// Task kinds of the tiled QR factorization with a flat reduction tree.
const (
	Geqrt Kind = iota // factor diagonal tile (K,K)
	Tsqrt             // fold tile (I,K) into the panel, writes (K,K) and (I,K)
	Ormqr             // apply Q(K)ᵀ to tile (K,J)
	Tsmqr             // apply TSQRT(I,K) reflectors, writes (K,J) and (I,J)
)

func (k Kind) String() string {
	switch k {
	case Geqrt:
		return "GEQRT"
	case Tsqrt:
		return "TSQRT"
	case Ormqr:
		return "ORMQR"
	case Tsmqr:
		return "TSMQR"
	}
	return "?"
}

// Task is one tile kernel invocation.
type Task struct {
	Kind    Kind
	I, J, K int
}

// Cost returns the relative cost in GEMM-equivalent flop units
// (GEQRT 4l³/3, TSQRT 2l³, ORMQR 2l³, TSMQR 4l³, normalized by l³ —
// the standard tiled-QR counts, where the coupled TSMQR update costs
// two plain GEMMs).
func (t Task) Cost() float64 {
	switch t.Kind {
	case Geqrt:
		return 4.0 / 3
	case Tsqrt:
		return 2
	case Ormqr:
		return 2
	case Tsmqr:
		return 4
	}
	panic("qr: unknown task kind")
}

func (t Task) String() string {
	switch t.Kind {
	case Geqrt:
		return fmt.Sprintf("GEQRT(%d)", t.K)
	case Tsqrt:
		return fmt.Sprintf("TSQRT(%d,%d)", t.I, t.K)
	case Ormqr:
		return fmt.Sprintf("ORMQR(%d,%d)", t.K, t.J)
	default:
		return fmt.Sprintf("TSMQR(%d,%d,%d)", t.I, t.J, t.K)
	}
}

// TaskCount returns the number of tasks of an n-tile factorization:
// n GEQRTs, n(n−1)/2 TSQRTs, n(n−1)/2 ORMQRs and Σ_k (n−k−1)² TSMQRs.
func TaskCount(n int) int {
	tsmqr := 0
	for k := 0; k < n; k++ {
		m := n - k - 1
		tsmqr += m * m
	}
	return n + n*(n-1) + tsmqr
}

// TotalWork returns the total GEMM-equivalent work.
func TotalWork(n int) float64 {
	w := 0.0
	for k := 0; k < n; k++ {
		w += Task{Kind: Geqrt, K: k}.Cost()
		m := float64(n - k - 1)
		w += m * Task{Kind: Tsqrt}.Cost()
		w += m * Task{Kind: Ormqr}.Cost()
		w += m * m * Task{Kind: Tsmqr}.Cost()
	}
	return w
}

// CriticalPath returns the length (in GEMM-equivalent units) of the
// dependency chain GEQRT(k) → TSQRT(k+1,k) → TSMQR(k+1,k+1,k) →
// GEQRT(k+1) → …, a valid lower bound on any schedule.
func CriticalPath(n int) float64 {
	cp := 0.0
	for k := 0; k < n; k++ {
		cp += Task{Kind: Geqrt, K: k}.Cost()
		if k+1 < n {
			cp += Task{Kind: Tsqrt}.Cost()
			cp += Task{Kind: Tsmqr}.Cost()
		}
	}
	return cp
}
