package lu

import (
	"encoding/binary"

	"hetsched/internal/core"
	"hetsched/internal/dag"
)

// progress is the DAG progress of one tiled-LU run through the GETRF /
// TRSM-L / TRSM-U / GEMM task graph of the unpivoted factorization.
// Both triangles of the matrix are active, making it a structurally
// richer instance of the generic engine than Cholesky.
type progress struct {
	n int

	gemmsDone   []int // per tile (i,j): completed GEMM(i,j,·) count
	getrfDone   []bool
	trsmRowDone []bool // per tile (k,j)
	trsmColDone []bool // per tile (i,k)
}

func newProgress(n int) dag.Progress {
	return &progress{
		n:           n,
		gemmsDone:   make([]int, n*n),
		getrfDone:   make([]bool, n),
		trsmRowDone: make([]bool, n*n),
		trsmColDone: make([]bool, n*n),
	}
}

func (g *progress) tile(i, j int) int { return i*g.n + j }

// OutputTiles implements dag.Progress: every LU task writes exactly one
// tile.
func (g *progress) OutputTiles(t dag.Task, buf []int) []int {
	switch t.Kind {
	case getrf:
		return append(buf, g.tile(t.K, t.K))
	case trsmRow:
		return append(buf, g.tile(t.K, t.J))
	case trsmCol:
		return append(buf, g.tile(t.I, t.K))
	default:
		return append(buf, g.tile(t.I, t.J))
	}
}

// InputTiles implements dag.Progress.
func (g *progress) InputTiles(t dag.Task, buf []int) []int {
	switch t.Kind {
	case getrf:
		buf = append(buf, g.tile(t.K, t.K))
	case trsmRow:
		buf = append(buf, g.tile(t.K, t.K), g.tile(t.K, t.J))
	case trsmCol:
		buf = append(buf, g.tile(t.K, t.K), g.tile(t.I, t.K))
	default:
		buf = append(buf, g.tile(t.I, t.K), g.tile(t.K, t.J), g.tile(t.I, t.J))
	}
	return buf
}

// InitialReady implements dag.Progress.
func (g *progress) InitialReady(ready []dag.Task) []dag.Task {
	return append(ready, dag.Task{Kind: getrf, K: 0})
}

// Complete implements dag.Progress: marks t done and appends newly
// ready tasks.
func (g *progress) Complete(t dag.Task, ready []dag.Task) []dag.Task {
	n := g.n
	switch t.Kind {
	case getrf:
		g.getrfDone[t.K] = true
		for j := t.K + 1; j < n; j++ {
			if g.gemmsDone[g.tile(t.K, j)] == t.K {
				ready = append(ready, dag.Task{Kind: trsmRow, K: t.K, J: j})
			}
		}
		for i := t.K + 1; i < n; i++ {
			if g.gemmsDone[g.tile(i, t.K)] == t.K {
				ready = append(ready, dag.Task{Kind: trsmCol, I: i, K: t.K})
			}
		}
	case trsmRow:
		g.trsmRowDone[g.tile(t.K, t.J)] = true
		for i := t.K + 1; i < n; i++ {
			if g.trsmColDone[g.tile(i, t.K)] {
				ready = append(ready, dag.Task{Kind: gemm, I: i, J: t.J, K: t.K})
			}
		}
	case trsmCol:
		g.trsmColDone[g.tile(t.I, t.K)] = true
		for j := t.K + 1; j < n; j++ {
			if g.trsmRowDone[g.tile(t.K, j)] {
				ready = append(ready, dag.Task{Kind: gemm, I: t.I, J: j, K: t.K})
			}
		}
	case gemm:
		id := g.tile(t.I, t.J)
		g.gemmsDone[id]++
		if g.gemmsDone[id] != min(t.I, t.J) {
			return ready
		}
		switch {
		case t.I == t.J:
			ready = append(ready, dag.Task{Kind: getrf, K: t.I})
		case t.I < t.J: // upper tile → row solve once GETRF(i) done
			if g.getrfDone[t.I] {
				ready = append(ready, dag.Task{Kind: trsmRow, K: t.I, J: t.J})
			}
		default: // lower tile → column solve once GETRF(j) done
			if g.getrfDone[t.J] {
				ready = append(ready, dag.Task{Kind: trsmCol, I: t.I, K: t.J})
			}
		}
	}
	return ready
}

// AppendState implements dag.Progress: the per-tile GEMM counts, then
// the GETRF, row-solve and column-solve completion flags.
func (g *progress) AppendState(dst []byte) []byte {
	for _, c := range g.gemmsDone {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	dst = core.AppendBools(dst, g.getrfDone)
	dst = core.AppendBools(dst, g.trsmRowDone)
	return core.AppendBools(dst, g.trsmColDone)
}

// RestoreState implements dag.Progress. Tile (i, j) takes min(i, j)
// GEMMs; GETRF(k) ran on a fully updated diagonal tile, and the solves
// of step k, right of it and below it, after it.
func (g *progress) RestoreState(src []byte) error {
	r := core.NewStateReader(src)
	n := g.n
	for id := range g.gemmsDone {
		g.gemmsDone[id] = r.Int(min(id/n, id%n), "LU GEMM count")
	}
	r.Bools(g.getrfDone)
	r.Bools(g.trsmRowDone)
	r.Bools(g.trsmColDone)
	for kk, done := range g.getrfDone {
		if done && g.gemmsDone[g.tile(kk, kk)] != kk {
			r.Failf("lu: GETRF(%d) done on a tile short of updates", kk)
		}
	}
	for id := range g.trsmRowDone {
		a, b := id/n, id%n
		if g.trsmRowDone[id] && (a >= b || !g.getrfDone[a] || g.gemmsDone[id] != a) {
			r.Failf("lu: TRSM-U(%d,%d) done out of order", a, b)
		}
		if g.trsmColDone[id] && (a <= b || !g.getrfDone[b] || g.gemmsDone[id] != b) {
			r.Failf("lu: TRSM-L(%d,%d) done out of order", a, b)
		}
	}
	return r.Done()
}

// Released implements dag.Progress: t is an LU task whose inputs are
// final and which has not run, the condition under which Complete made
// it ready.
func (g *progress) Released(t dag.Task) bool {
	n := g.n
	switch t.Kind {
	case getrf:
		return t.I == 0 && t.J == 0 && 0 <= t.K && t.K < n &&
			!g.getrfDone[t.K] && g.gemmsDone[g.tile(t.K, t.K)] == t.K
	case trsmRow:
		return t.I == 0 && 0 <= t.K && t.K < t.J && t.J < n &&
			g.getrfDone[t.K] && !g.trsmRowDone[g.tile(t.K, t.J)] && g.gemmsDone[g.tile(t.K, t.J)] == t.K
	case trsmCol:
		return t.J == 0 && 0 <= t.K && t.K < t.I && t.I < n &&
			g.getrfDone[t.K] && !g.trsmColDone[g.tile(t.I, t.K)] && g.gemmsDone[g.tile(t.I, t.K)] == t.K
	case gemm:
		return 0 <= t.K && t.K < t.I && t.I < n && t.K < t.J && t.J < n &&
			g.trsmColDone[g.tile(t.I, t.K)] && g.trsmRowDone[g.tile(t.K, t.J)] &&
			g.gemmsDone[g.tile(t.I, t.J)] < min(t.I, t.J)
	}
	return false
}
