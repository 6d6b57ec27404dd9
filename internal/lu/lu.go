// Package lu implements the second kernel of the paper's future-work
// direction (§5): dynamic, data-aware scheduling of the tiled LU
// factorization A = L·U (without pivoting; inputs are diagonally
// dominant). Its task DAG — GETRF(k), row solves TRSM-L(k,j), column
// solves TRSM-U(i,k) and trailing updates GEMM(i,j,k) — is richer than
// Cholesky's (both triangles are active), making it a second test of
// the dependency-aware demand-driven engine.
//
// The structure mirrors package cholesky: Kernel is the task graph and
// its numerics, through which Kernel.Replay validates a completion
// order.
package lu

import (
	"fmt"

	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/linalg"
)

// Task kinds of the tiled right-looking LU factorization.
const (
	getrf   dag.Kind = iota // factor diagonal tile (K,K) into L\U
	trsmRow                 // row solve: U(K,J) := L(K,K)⁻¹·A(K,J)
	trsmCol                 // column solve: L(I,K) := A(I,K)·U(K,K)⁻¹
	gemm                    // trailing update: A(I,J) −= L(I,K)·U(K,J)
)

// Kernel is the tiled LU factorization on the generic engine.
var Kernel = &dag.Kernel{
	Name:         "LU",
	Cost:         cost,
	Format:       format,
	Tasks:        taskCount,
	TotalWork:    totalWork,
	CriticalPath: criticalPath,
	New:          newProgress,
	Numerics: &dag.Numerics{
		Apply:    apply,
		Fill:     linalg.RandomDominant,
		Residual: linalg.LUResidual,
		Label:    "|A − L·U|",
	},
}

// cost is the relative cost in GEMM-equivalent flop units (GETRF
// 2l³/3, TRSM l³, GEMM 2l³, normalized by l³).
func cost(t dag.Task) float64 {
	switch t.Kind {
	case getrf:
		return 2.0 / 3
	case trsmRow, trsmCol:
		return 1
	case gemm:
		return 2
	}
	panic("lu: unknown task kind")
}

func format(t dag.Task) string {
	switch t.Kind {
	case getrf:
		return fmt.Sprintf("GETRF(%d)", t.K)
	case trsmRow:
		return fmt.Sprintf("TRSM-L(%d,%d)", t.K, t.J)
	case trsmCol:
		return fmt.Sprintf("TRSM-U(%d,%d)", t.I, t.K)
	default:
		return fmt.Sprintf("GEMM(%d,%d,%d)", t.I, t.J, t.K)
	}
}

// taskCount is the number of tasks of an n-tile factorization: n
// GETRFs, n(n−1) TRSMs and Σ_k (n−k−1)² GEMMs.
func taskCount(n int) int {
	gemms := 0
	for k := 0; k < n; k++ {
		m := n - k - 1
		gemms += m * m
	}
	return n + n*(n-1) + gemms
}

// totalWork is the total GEMM-equivalent work.
func totalWork(n int) float64 {
	w := 0.0
	for k := 0; k < n; k++ {
		w += cost(dag.Task{Kind: getrf, K: k})
		m := n - k - 1
		w += float64(2*m) * 1
		w += float64(m*m) * 2
	}
	return w
}

// criticalPath is the longest dependency chain in GEMM-equivalent
// units: GETRF(k) → TRSM → GEMM(k+1,k+1,k) → GETRF(k+1) → …
func criticalPath(n int) float64 {
	cp := 0.0
	for k := 0; k < n; k++ {
		cp += cost(dag.Task{Kind: getrf, K: k})
		if k+1 < n {
			cp += 1 // one TRSM
			cp += 2 // the diagonal GEMM
		}
	}
	return cp
}

// apply runs the tile kernel of the encoded task ct on m in place.
func apply(ct core.Task, m *linalg.BlockedMatrix) error {
	t := dag.DecodeTask(ct, m.N)
	switch t.Kind {
	case getrf:
		if err := linalg.GetrfBlock(m.Block(t.K, t.K)); err != nil {
			return fmt.Errorf("lu: %s: %w", format(t), err)
		}
	case trsmRow:
		linalg.TrsmLowerUnitBlock(m.Block(t.K, t.J), m.Block(t.K, t.K))
	case trsmCol:
		linalg.TrsmUpperBlock(m.Block(t.I, t.K), m.Block(t.K, t.K))
	case gemm:
		linalg.GemmSubBlock(m.Block(t.I, t.J), m.Block(t.I, t.K), m.Block(t.K, t.J))
	default:
		return fmt.Errorf("lu: unknown task kind %d", t.Kind)
	}
	return nil
}
