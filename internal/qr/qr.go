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
// Kernel is simulation-level: the simulator and the scheduler service
// (kernel "qr") run it through dag.NewDriver; its Numerics is nil.
//
// Task graph at step k (sequential TS chain down each panel):
//
//	GEQRT(k)      factors tile (k,k) into V/R.
//	ORMQR(k,j)    applies Q(k)ᵀ to tile (k,j), j > k.
//	TSQRT(i,k)    folds tile (i,k) into the panel R, i > k, chained in i.
//	TSMQR(i,j,k)  applies the TSQRT(i,k) reflectors to tiles (k,j) and
//	              (i,j), chained in i for each column j.
package qr

import (
	"fmt"

	"hetsched/internal/dag"
)

// Task kinds of the tiled QR factorization with a flat reduction tree.
const (
	geqrt dag.Kind = iota // factor diagonal tile (K,K)
	tsqrt                 // fold tile (I,K) into the panel, writes (K,K) and (I,K)
	ormqr                 // apply Q(K)ᵀ to tile (K,J)
	tsmqr                 // apply TSQRT(I,K) reflectors, writes (K,J) and (I,J)
)

// Kernel is the tiled QR factorization on the generic engine.
var Kernel = &dag.Kernel{
	Name:         "QR",
	Cost:         cost,
	Format:       format,
	Tasks:        taskCount,
	TotalWork:    totalWork,
	CriticalPath: criticalPath,
	New:          newProgress,
}

// cost is the relative cost in GEMM-equivalent flop units (GEQRT
// 4l³/3, TSQRT 2l³, ORMQR 2l³, TSMQR 4l³, normalized by l³ — the
// standard tiled-QR counts, where the coupled TSMQR update costs two
// plain GEMMs).
func cost(t dag.Task) float64 {
	switch t.Kind {
	case geqrt:
		return 4.0 / 3
	case tsqrt:
		return 2
	case ormqr:
		return 2
	case tsmqr:
		return 4
	}
	panic("qr: unknown task kind")
}

func format(t dag.Task) string {
	switch t.Kind {
	case geqrt:
		return fmt.Sprintf("GEQRT(%d)", t.K)
	case tsqrt:
		return fmt.Sprintf("TSQRT(%d,%d)", t.I, t.K)
	case ormqr:
		return fmt.Sprintf("ORMQR(%d,%d)", t.K, t.J)
	default:
		return fmt.Sprintf("TSMQR(%d,%d,%d)", t.I, t.J, t.K)
	}
}

// taskCount is the number of tasks of an n-tile factorization: n
// GEQRTs, n(n−1)/2 TSQRTs, n(n−1)/2 ORMQRs and Σ_k (n−k−1)² TSMQRs.
func taskCount(n int) int {
	tsmqrs := 0
	for k := 0; k < n; k++ {
		m := n - k - 1
		tsmqrs += m * m
	}
	return n + n*(n-1) + tsmqrs
}

// totalWork is the total GEMM-equivalent work.
func totalWork(n int) float64 {
	w := 0.0
	for k := 0; k < n; k++ {
		w += cost(dag.Task{Kind: geqrt, K: k})
		m := float64(n - k - 1)
		w += m * cost(dag.Task{Kind: tsqrt})
		w += m * cost(dag.Task{Kind: ormqr})
		w += m * m * cost(dag.Task{Kind: tsmqr})
	}
	return w
}

// criticalPath is the length (in GEMM-equivalent units) of the
// dependency chain GEQRT(k) → TSQRT(k+1,k) → TSMQR(k+1,k+1,k) →
// GEQRT(k+1) → …, a valid lower bound on any schedule.
func criticalPath(n int) float64 {
	cp := 0.0
	for k := 0; k < n; k++ {
		cp += cost(dag.Task{Kind: geqrt, K: k})
		if k+1 < n {
			cp += cost(dag.Task{Kind: tsqrt})
			cp += cost(dag.Task{Kind: tsmqr})
		}
	}
	return cp
}
