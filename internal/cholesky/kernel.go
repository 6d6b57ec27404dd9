package cholesky

import (
	"encoding/binary"

	"hetsched/internal/core"
	"hetsched/internal/dag"
)

// tileID flattens a lower-triangle tile coordinate (i ≥ j).
func tileID(i, j, n int) int {
	if j > i {
		panic("cholesky: upper-triangle tile referenced")
	}
	return i*n + j
}

// progress is the DAG progress of one tiled-Cholesky run through the
// POTRF / TRSM / SYRK / GEMM task graph. Only the lower block triangle
// is active, but tile ids are flattened over the full n×n grid.
type progress struct {
	n int

	updatesDone []int  // per tile (i,j): number of completed UPDATE(i,j,·)
	potrfDone   []bool // per k
	trsmDone    []bool // per tile (i,k)
}

func newProgress(n int) dag.Progress {
	return &progress{
		n:           n,
		updatesDone: make([]int, n*n),
		potrfDone:   make([]bool, n),
		trsmDone:    make([]bool, n*n),
	}
}

// OutputTiles implements dag.Progress: every Cholesky task writes
// exactly one tile.
func (g *progress) OutputTiles(t dag.Task, buf []int) []int {
	switch t.Kind {
	case potrf:
		return append(buf, tileID(t.K, t.K, g.n))
	case trsm:
		return append(buf, tileID(t.I, t.K, g.n))
	default:
		return append(buf, tileID(t.I, t.J, g.n))
	}
}

// InputTiles implements dag.Progress: the tiles a task reads
// (including the read-modify-write output for updates).
func (g *progress) InputTiles(t dag.Task, buf []int) []int {
	n := g.n
	switch t.Kind {
	case potrf:
		buf = append(buf, tileID(t.K, t.K, n))
	case trsm:
		buf = append(buf, tileID(t.K, t.K, n), tileID(t.I, t.K, n))
	default:
		buf = append(buf, tileID(t.I, t.K, n), tileID(t.I, t.J, n))
		if t.J != t.I {
			buf = append(buf, tileID(t.J, t.K, n))
		}
	}
	return buf
}

// InitialReady implements dag.Progress: POTRF(0) needs zero updates;
// it is the only initially ready task.
func (g *progress) InitialReady(ready []dag.Task) []dag.Task {
	return append(ready, dag.Task{Kind: potrf, K: 0})
}

// Complete implements dag.Progress: marks t done and appends newly
// ready tasks.
func (g *progress) Complete(t dag.Task, ready []dag.Task) []dag.Task {
	n := g.n
	switch t.Kind {
	case potrf:
		g.potrfDone[t.K] = true
		// Panel solves below k become ready once their tile is fully
		// updated.
		for i := t.K + 1; i < n; i++ {
			if g.updatesDone[tileID(i, t.K, n)] == t.K {
				ready = append(ready, dag.Task{Kind: trsm, I: i, K: t.K})
			}
		}
	case trsm:
		g.trsmDone[tileID(t.I, t.K, n)] = true
		// Updates pairing this panel tile with every finished panel
		// tile of the same step k.
		for j := t.K + 1; j <= t.I; j++ {
			if g.trsmDone[tileID(j, t.K, n)] {
				ready = append(ready, dag.Task{Kind: update, I: t.I, J: j, K: t.K})
			}
		}
		for i := t.I + 1; i < n; i++ {
			if g.trsmDone[tileID(i, t.K, n)] {
				ready = append(ready, dag.Task{Kind: update, I: i, J: t.I, K: t.K})
			}
		}
	case update:
		id := tileID(t.I, t.J, n)
		g.updatesDone[id]++
		if t.I == t.J {
			if g.updatesDone[id] == t.J {
				ready = append(ready, dag.Task{Kind: potrf, K: t.J})
			}
		} else if g.updatesDone[id] == t.J && g.potrfDone[t.J] {
			ready = append(ready, dag.Task{Kind: trsm, I: t.I, K: t.J})
		}
	}
	return ready
}

// AppendState implements dag.Progress: the per-tile update counts,
// then the POTRF and TRSM completion flags.
func (g *progress) AppendState(dst []byte) []byte {
	for _, c := range g.updatesDone {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	dst = core.AppendBools(dst, g.potrfDone)
	return core.AppendBools(dst, g.trsmDone)
}

// RestoreState implements dag.Progress. Tile (i, j) of the lower
// triangle takes j updates and the upper triangle none; POTRF(k) ran on
// a fully updated diagonal tile, and TRSM(i, k) below the diagonal
// after it.
func (g *progress) RestoreState(src []byte) error {
	r := core.NewStateReader(src)
	n := g.n
	for id := range g.updatesDone {
		i, j := id/n, id%n
		max := j
		if j > i {
			max = 0
		}
		g.updatesDone[id] = r.Int(max, "cholesky update count")
	}
	r.Bools(g.potrfDone)
	r.Bools(g.trsmDone)
	for kk, done := range g.potrfDone {
		if done && g.updatesDone[kk*n+kk] != kk {
			r.Failf("cholesky: POTRF(%d) done on a tile short of updates", kk)
		}
	}
	for id, done := range g.trsmDone {
		if i, kk := id/n, id%n; done && (i <= kk || !g.potrfDone[kk] || g.updatesDone[id] != kk) {
			r.Failf("cholesky: TRSM(%d,%d) done out of order", i, kk)
		}
	}
	return r.Done()
}

// Released implements dag.Progress: t is a Cholesky task whose inputs
// are final and which has not run, the condition under which Complete
// made it ready.
func (g *progress) Released(t dag.Task) bool {
	n := g.n
	switch t.Kind {
	case potrf:
		return t.I == 0 && t.J == 0 && 0 <= t.K && t.K < n &&
			!g.potrfDone[t.K] && g.updatesDone[t.K*n+t.K] == t.K
	case trsm:
		return t.J == 0 && 0 <= t.K && t.K < t.I && t.I < n &&
			g.potrfDone[t.K] && !g.trsmDone[t.I*n+t.K] && g.updatesDone[t.I*n+t.K] == t.K
	case update:
		return 0 <= t.K && t.K < t.J && t.J <= t.I && t.I < n &&
			g.trsmDone[t.I*n+t.K] && g.trsmDone[t.J*n+t.K] && g.updatesDone[t.I*n+t.J] < t.J
	}
	return false
}
