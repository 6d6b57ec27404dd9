package lu

import "hetsched/internal/dag"

// Policy selects which schedulable ready task a requesting worker
// gets; the policies are shared by every DAG kernel and live in
// internal/dag.
type Policy = dag.Policy

// Ready-task selection policies.
const (
	RandomReady       = dag.RandomReady
	LocalityReady     = dag.LocalityReady
	CriticalPathReady = dag.CriticalPathReady
)

// toDAG and fromDAG convert between the kernel's task type (which
// carries the LU-specific methods) and the engine's.
func toDAG(t Task) dag.Task   { return dag.Task{Kind: dag.Kind(t.Kind), I: t.I, J: t.J, K: t.K} }
func fromDAG(t dag.Task) Task { return Task{Kind: Kind(t.Kind), I: t.I, J: t.J, K: t.K} }

// kernel is the tiled-LU dag.Kernel: it describes the GETRF / TRSM-L /
// TRSM-U / GEMM task graph of the unpivoted factorization and tracks
// the DAG progress of one run. Both triangles of the matrix are
// active, making it a structurally richer instance of the generic
// engine than Cholesky.
type kernel struct {
	n int

	gemmsDone   []int // per tile (i,j): completed GEMM(i,j,·) count
	getrfDone   []bool
	trsmRowDone []bool // per tile (k,j)
	trsmColDone []bool // per tile (i,k)

	total int
}

// NewKernel builds the dag.Kernel of an n×n-tile LU factorization.
func NewKernel(n int) dag.Kernel {
	if n <= 0 {
		panic("lu: non-positive tile count")
	}
	return &kernel{
		n:           n,
		gemmsDone:   make([]int, n*n),
		getrfDone:   make([]bool, n),
		trsmRowDone: make([]bool, n*n),
		trsmColDone: make([]bool, n*n),
		total:       TaskCount(n),
	}
}

func (k *kernel) tile(i, j int) int { return i*k.n + j }

// Name implements dag.Kernel.
func (k *kernel) Name() string { return "LU" }

// N implements dag.Kernel.
func (k *kernel) N() int { return k.n }

// Tiles implements dag.Kernel.
func (k *kernel) Tiles() int { return k.n * k.n }

// Total implements dag.Kernel.
func (k *kernel) Total() int { return k.total }

// Cost implements dag.Kernel.
func (k *kernel) Cost(t dag.Task) float64 { return fromDAG(t).Cost() }

// Depth implements dag.Kernel: the elimination step k.
func (k *kernel) Depth(t dag.Task) int { return t.K }

// OutputTiles implements dag.Kernel: every LU task writes exactly one
// tile.
func (k *kernel) OutputTiles(dt dag.Task, buf []int) []int {
	t := fromDAG(dt)
	switch t.Kind {
	case Getrf:
		return append(buf, k.tile(t.K, t.K))
	case TrsmRow:
		return append(buf, k.tile(t.K, t.J))
	case TrsmCol:
		return append(buf, k.tile(t.I, t.K))
	default:
		return append(buf, k.tile(t.I, t.J))
	}
}

// InputTiles implements dag.Kernel.
func (k *kernel) InputTiles(dt dag.Task, buf []int) []int {
	t := fromDAG(dt)
	switch t.Kind {
	case Getrf:
		buf = append(buf, k.tile(t.K, t.K))
	case TrsmRow:
		buf = append(buf, k.tile(t.K, t.K), k.tile(t.K, t.J))
	case TrsmCol:
		buf = append(buf, k.tile(t.K, t.K), k.tile(t.I, t.K))
	default:
		buf = append(buf, k.tile(t.I, t.K), k.tile(t.K, t.J), k.tile(t.I, t.J))
	}
	return buf
}

// InitialReady implements dag.Kernel.
func (k *kernel) InitialReady(ready []dag.Task) []dag.Task {
	return append(ready, toDAG(Task{Kind: Getrf, K: 0}))
}

// Complete implements dag.Kernel: marks t done and appends newly ready
// tasks.
func (k *kernel) Complete(dt dag.Task, ready []dag.Task) []dag.Task {
	t := fromDAG(dt)
	n := k.n
	switch t.Kind {
	case Getrf:
		k.getrfDone[t.K] = true
		for j := t.K + 1; j < n; j++ {
			if k.gemmsDone[k.tile(t.K, j)] == t.K {
				ready = append(ready, toDAG(Task{Kind: TrsmRow, K: t.K, J: j}))
			}
		}
		for i := t.K + 1; i < n; i++ {
			if k.gemmsDone[k.tile(i, t.K)] == t.K {
				ready = append(ready, toDAG(Task{Kind: TrsmCol, I: i, K: t.K}))
			}
		}
	case TrsmRow:
		k.trsmRowDone[k.tile(t.K, t.J)] = true
		for i := t.K + 1; i < n; i++ {
			if k.trsmColDone[k.tile(i, t.K)] {
				ready = append(ready, toDAG(Task{Kind: Gemm, I: i, J: t.J, K: t.K}))
			}
		}
	case TrsmCol:
		k.trsmColDone[k.tile(t.I, t.K)] = true
		for j := t.K + 1; j < n; j++ {
			if k.trsmRowDone[k.tile(t.K, j)] {
				ready = append(ready, toDAG(Task{Kind: Gemm, I: t.I, J: j, K: t.K}))
			}
		}
	case Gemm:
		id := k.tile(t.I, t.J)
		k.gemmsDone[id]++
		if k.gemmsDone[id] != min(t.I, t.J) {
			return ready
		}
		switch {
		case t.I == t.J:
			ready = append(ready, toDAG(Task{Kind: Getrf, K: t.I}))
		case t.I < t.J: // upper tile → row solve once GETRF(i) done
			if k.getrfDone[t.I] {
				ready = append(ready, toDAG(Task{Kind: TrsmRow, K: t.I, J: t.J}))
			}
		default: // lower tile → column solve once GETRF(j) done
			if k.getrfDone[t.J] {
				ready = append(ready, toDAG(Task{Kind: TrsmCol, I: t.I, K: t.J}))
			}
		}
	}
	return ready
}
