// Package lu implements the second kernel of the paper's future-work
// direction (§5): dynamic, data-aware scheduling of the tiled LU
// factorization A = L·U (without pivoting; inputs are diagonally
// dominant). Its task DAG — GETRF(k), row solves TRSM-L(k,j), column
// solves TRSM-U(i,k) and trailing updates GEMM(i,j,k) — is richer than
// Cholesky's (both triangles are active), making it a second test of
// the dependency-aware demand-driven engine.
//
// The structure mirrors package cholesky: NewKernel is the dag.Kernel
// (task graph, tile reads/writes, costs), Apply runs one task's tile
// kernel, and the generic engine in internal/dag supplies the ready
// set, the record of what each worker holds and the selection
// policies. sim.RunDriver(dag.NewDriver(NewKernel(n), …), …) runs it in
// virtual time; Replay validates a completion order numerically.
package lu

import "fmt"

// Kind enumerates the tile kernels.
type Kind uint8

// Task kinds of the tiled right-looking LU factorization.
const (
	Getrf   Kind = iota // factor diagonal tile (K,K) into L\U
	TrsmRow             // row solve: U(K,J) := L(K,K)⁻¹·A(K,J)
	TrsmCol             // column solve: L(I,K) := A(I,K)·U(K,K)⁻¹
	Gemm                // trailing update: A(I,J) −= L(I,K)·U(K,J)
)

func (k Kind) String() string {
	switch k {
	case Getrf:
		return "GETRF"
	case TrsmRow:
		return "TRSM-L"
	case TrsmCol:
		return "TRSM-U"
	case Gemm:
		return "GEMM"
	}
	return "?"
}

// Task is one tile kernel invocation.
type Task struct {
	Kind    Kind
	I, J, K int
}

// Cost returns the relative cost in GEMM-equivalent flop units
// (GETRF 2l³/3, TRSM l³, GEMM 2l³, normalized by l³).
func (t Task) Cost() float64 {
	switch t.Kind {
	case Getrf:
		return 2.0 / 3
	case TrsmRow, TrsmCol:
		return 1
	case Gemm:
		return 2
	}
	panic("lu: unknown task kind")
}

func (t Task) String() string {
	switch t.Kind {
	case Getrf:
		return fmt.Sprintf("GETRF(%d)", t.K)
	case TrsmRow:
		return fmt.Sprintf("TRSM-L(%d,%d)", t.K, t.J)
	case TrsmCol:
		return fmt.Sprintf("TRSM-U(%d,%d)", t.I, t.K)
	default:
		return fmt.Sprintf("GEMM(%d,%d,%d)", t.I, t.J, t.K)
	}
}

// TaskCount returns the number of tasks of an n-tile factorization:
// n GETRFs, n(n−1) TRSMs and Σ_k (n−k−1)² GEMMs.
func TaskCount(n int) int {
	gemm := 0
	for k := 0; k < n; k++ {
		m := n - k - 1
		gemm += m * m
	}
	return n + n*(n-1) + gemm
}

// TotalWork returns the total GEMM-equivalent work.
func TotalWork(n int) float64 {
	w := 0.0
	for k := 0; k < n; k++ {
		w += Task{Kind: Getrf, K: k}.Cost()
		m := n - k - 1
		w += float64(2*m) * 1
		w += float64(m*m) * 2
	}
	return w
}

// CriticalPath returns the longest dependency chain in
// GEMM-equivalent units: GETRF(k) → TRSM → GEMM(k+1,k+1,k) →
// GETRF(k+1) → …
func CriticalPath(n int) float64 {
	cp := 0.0
	for k := 0; k < n; k++ {
		cp += Task{Kind: Getrf, K: k}.Cost()
		if k+1 < n {
			cp += 1 // one TRSM
			cp += 2 // the diagonal GEMM
		}
	}
	return cp
}
