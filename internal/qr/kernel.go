package qr

import (
	"encoding/binary"

	"hetsched/internal/core"
	"hetsched/internal/dag"
)

// progress is the DAG progress of one tiled-QR run:
//
//   - geqrtDone[k], tsqrtDone[(i,k)], ormqrDone[(k,j)] mark completed
//     factorization/solve tasks;
//   - updates[(i,j)] counts completed TSMQR(i,j,·), i.e. the trailing
//     updates tile (i,j) has received as the *second* output. Per tile
//     these happen in strictly increasing step order, so
//     updates[(i,j)] > k ⟺ TSMQR(i,j,k) is done — which encodes the
//     sequential TS chain without extra state.
type progress struct {
	n int

	geqrtDone []bool // per k
	tsqrtDone []bool // per tile (i,k)
	ormqrDone []bool // per tile (k,j)
	updates   []int  // per tile (i,j): completed TSMQR(i,j,·)
}

func newProgress(n int) dag.Progress {
	return &progress{
		n:         n,
		geqrtDone: make([]bool, n),
		tsqrtDone: make([]bool, n*n),
		ormqrDone: make([]bool, n*n),
		updates:   make([]int, n*n),
	}
}

func (g *progress) tile(i, j int) int { return i*g.n + j }

// OutputTiles implements dag.Progress. The coupled kernels write two
// tiles: TSQRT updates the panel R tile (k,k) and the V tile (i,k);
// TSMQR updates the row-k tile (k,j) and the trailing tile (i,j).
func (g *progress) OutputTiles(t dag.Task, buf []int) []int {
	switch t.Kind {
	case geqrt:
		return append(buf, g.tile(t.K, t.K))
	case tsqrt:
		return append(buf, g.tile(t.K, t.K), g.tile(t.I, t.K))
	case ormqr:
		return append(buf, g.tile(t.K, t.J))
	default:
		return append(buf, g.tile(t.K, t.J), g.tile(t.I, t.J))
	}
}

// InputTiles implements dag.Progress (read-modify-write tiles
// included).
func (g *progress) InputTiles(t dag.Task, buf []int) []int {
	switch t.Kind {
	case geqrt:
		return append(buf, g.tile(t.K, t.K))
	case tsqrt:
		return append(buf, g.tile(t.K, t.K), g.tile(t.I, t.K))
	case ormqr:
		return append(buf, g.tile(t.K, t.K), g.tile(t.K, t.J))
	default:
		return append(buf, g.tile(t.I, t.K), g.tile(t.K, t.J), g.tile(t.I, t.J))
	}
}

// InitialReady implements dag.Progress.
func (g *progress) InitialReady(ready []dag.Task) []dag.Task {
	return append(ready, dag.Task{Kind: geqrt, K: 0})
}

// Complete implements dag.Progress: marks t done and appends the tasks
// whose last precondition t satisfied.
//
// Preconditions (n = grid size, all indices strict where written):
//
//	GEQRT(k):      updates[(k,k)] == k
//	ORMQR(k,j):    geqrtDone[k] ∧ updates[(k,j)] == k
//	TSQRT(i,k):    updates[(i,k)] == k ∧ (i==k+1 ? geqrtDone[k]
//	                                               : tsqrtDone[(i-1,k)])
//	TSMQR(i,j,k):  tsqrtDone[(i,k)] ∧ updates[(i,j)] == k ∧
//	               (i==k+1 ? ormqrDone[(k,j)] : updates[(i-1,j)] > k)
func (g *progress) Complete(t dag.Task, ready []dag.Task) []dag.Task {
	n := g.n
	switch t.Kind {
	case geqrt:
		g.geqrtDone[t.K] = true
		for j := t.K + 1; j < n; j++ {
			if g.updates[g.tile(t.K, j)] == t.K {
				ready = append(ready, dag.Task{Kind: ormqr, K: t.K, J: j})
			}
		}
		if i := t.K + 1; i < n && g.updates[g.tile(i, t.K)] == t.K {
			ready = append(ready, dag.Task{Kind: tsqrt, I: i, K: t.K})
		}
	case tsqrt:
		g.tsqrtDone[g.tile(t.I, t.K)] = true
		if i := t.I + 1; i < n && g.updates[g.tile(i, t.K)] == t.K {
			ready = append(ready, dag.Task{Kind: tsqrt, I: i, K: t.K})
		}
		for j := t.K + 1; j < n; j++ {
			if g.updates[g.tile(t.I, j)] == t.K && g.tsmqrChainDone(t.I, j, t.K) {
				ready = append(ready, dag.Task{Kind: tsmqr, I: t.I, J: j, K: t.K})
			}
		}
	case ormqr:
		g.ormqrDone[g.tile(t.K, t.J)] = true
		if i := t.K + 1; i < n && g.tsqrtDone[g.tile(i, t.K)] && g.updates[g.tile(i, t.J)] == t.K {
			ready = append(ready, dag.Task{Kind: tsmqr, I: i, J: t.J, K: t.K})
		}
	case tsmqr:
		id := g.tile(t.I, t.J)
		g.updates[id]++
		// Chain successor in this column at the same step.
		if i := t.I + 1; i < n && g.tsqrtDone[g.tile(i, t.K)] && g.updates[g.tile(i, t.J)] == t.K {
			ready = append(ready, dag.Task{Kind: tsmqr, I: i, J: t.J, K: t.K})
		}
		// Tile (i,j) has now received all updates of steps < next; the
		// task waiting on it (if any) is determined by where the tile
		// sits relative to the next step.
		next := g.updates[id]
		switch {
		case t.I == t.J && next == t.I:
			ready = append(ready, dag.Task{Kind: geqrt, K: t.I})
		case t.I < t.J && next == t.I:
			if g.geqrtDone[t.I] {
				ready = append(ready, dag.Task{Kind: ormqr, K: t.I, J: t.J})
			}
		case t.I > t.J && next == t.J:
			chain := t.I == t.J+1 && g.geqrtDone[t.J] ||
				t.I > t.J+1 && g.tsqrtDone[g.tile(t.I-1, t.J)]
			if chain {
				ready = append(ready, dag.Task{Kind: tsqrt, I: t.I, K: t.J})
			}
		case next < min(t.I, t.J):
			if g.tsqrtDone[g.tile(t.I, next)] && g.tsmqrChainDone(t.I, t.J, next) {
				ready = append(ready, dag.Task{Kind: tsmqr, I: t.I, J: t.J, K: next})
			}
		}
	}
	return ready
}

// tsmqrChainDone reports whether TSMQR(i,j,k)'s row-k chain
// predecessor is done: ORMQR(k,j) for the first link, TSMQR(i-1,j,k)
// (encoded as updates[(i-1,j)] > k) otherwise.
func (g *progress) tsmqrChainDone(i, j, step int) bool {
	if i == step+1 {
		return g.ormqrDone[g.tile(step, j)]
	}
	return g.updates[g.tile(i-1, j)] > step
}

// AppendState implements dag.Progress: the per-tile TSMQR counts, then
// the GEQRT, TSQRT and ORMQR completion flags.
func (g *progress) AppendState(dst []byte) []byte {
	for _, c := range g.updates {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	dst = core.AppendBools(dst, g.geqrtDone)
	dst = core.AppendBools(dst, g.tsqrtDone)
	return core.AppendBools(dst, g.ormqrDone)
}

// RestoreState implements dag.Progress. Tile (i, j) takes min(i, j)
// trailing updates; GEQRT(k) ran on a fully updated diagonal tile,
// TSQRT(i, k) only below the diagonal and ORMQR(k, j) only right of it.
func (g *progress) RestoreState(src []byte) error {
	r := core.NewStateReader(src)
	n := g.n
	for id := range g.updates {
		g.updates[id] = r.Int(min(id/n, id%n), "QR update count")
	}
	r.Bools(g.geqrtDone)
	r.Bools(g.tsqrtDone)
	r.Bools(g.ormqrDone)
	for kk, done := range g.geqrtDone {
		if done && g.updates[g.tile(kk, kk)] != kk {
			r.Failf("qr: GEQRT(%d) done on a tile short of updates", kk)
		}
	}
	for id := range g.tsqrtDone {
		a, b := id/n, id%n
		if g.tsqrtDone[id] && (a <= b || g.updates[id] != b) {
			r.Failf("qr: TSQRT(%d,%d) done out of order", a, b)
		}
		if g.ormqrDone[id] && (a >= b || !g.geqrtDone[a] || g.updates[id] != a) {
			r.Failf("qr: ORMQR(%d,%d) done out of order", a, b)
		}
	}
	return r.Done()
}

// Released implements dag.Progress: t is a QR task whose
// preconditions (listed on Complete) hold and which has not run.
func (g *progress) Released(t dag.Task) bool {
	n := g.n
	switch t.Kind {
	case geqrt:
		return t.I == 0 && t.J == 0 && 0 <= t.K && t.K < n &&
			!g.geqrtDone[t.K] && g.updates[g.tile(t.K, t.K)] == t.K
	case ormqr:
		return t.I == 0 && 0 <= t.K && t.K < t.J && t.J < n &&
			g.geqrtDone[t.K] && !g.ormqrDone[g.tile(t.K, t.J)] && g.updates[g.tile(t.K, t.J)] == t.K
	case tsqrt:
		if t.J != 0 || t.K < 0 || t.I <= t.K || t.I >= n {
			return false
		}
		chain := t.I == t.K+1 && g.geqrtDone[t.K] || t.I > t.K+1 && g.tsqrtDone[g.tile(t.I-1, t.K)]
		return chain && !g.tsqrtDone[g.tile(t.I, t.K)] && g.updates[g.tile(t.I, t.K)] == t.K
	case tsmqr:
		return 0 <= t.K && t.K < t.I && t.I < n && t.K < t.J && t.J < n &&
			g.tsqrtDone[g.tile(t.I, t.K)] && g.updates[g.tile(t.I, t.J)] == t.K &&
			g.tsmqrChainDone(t.I, t.J, t.K)
	}
	return false
}
