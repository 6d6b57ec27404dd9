package qr

import (
	"encoding/binary"

	"hetsched/internal/core"
	"hetsched/internal/dag"
)

// toDAG and fromDAG convert between the kernel's task type and the
// engine's.
func toDAG(t Task) dag.Task   { return dag.Task{Kind: dag.Kind(t.Kind), I: t.I, J: t.J, K: t.K} }
func fromDAG(t dag.Task) Task { return Task{Kind: Kind(t.Kind), I: t.I, J: t.J, K: t.K} }

// kernel is the tiled-QR dag.Kernel. Progress bookkeeping:
//
//   - geqrtDone[k], tsqrtDone[(i,k)], ormqrDone[(k,j)] mark completed
//     factorization/solve tasks;
//   - updates[(i,j)] counts completed TSMQR(i,j,·), i.e. the trailing
//     updates tile (i,j) has received as the *second* output. Per tile
//     these happen in strictly increasing step order, so
//     updates[(i,j)] > k ⟺ TSMQR(i,j,k) is done — which encodes the
//     sequential TS chain without extra state.
type kernel struct {
	n int

	geqrtDone []bool // per k
	tsqrtDone []bool // per tile (i,k)
	ormqrDone []bool // per tile (k,j)
	updates   []int  // per tile (i,j): completed TSMQR(i,j,·)

	total int
}

// NewKernel builds the dag.Kernel of an n×n-tile QR factorization.
func NewKernel(n int) dag.Kernel {
	if n <= 0 {
		panic("qr: non-positive tile count")
	}
	return &kernel{
		n:         n,
		geqrtDone: make([]bool, n),
		tsqrtDone: make([]bool, n*n),
		ormqrDone: make([]bool, n*n),
		updates:   make([]int, n*n),
		total:     TaskCount(n),
	}
}

func (k *kernel) tile(i, j int) int { return i*k.n + j }

// Name implements dag.Kernel.
func (k *kernel) Name() string { return "QR" }

// N implements dag.Kernel.
func (k *kernel) N() int { return k.n }

// Tiles implements dag.Kernel.
func (k *kernel) Tiles() int { return k.n * k.n }

// Total implements dag.Kernel.
func (k *kernel) Total() int { return k.total }

// Cost implements dag.Kernel.
func (k *kernel) Cost(t dag.Task) float64 { return fromDAG(t).Cost() }

// Depth implements dag.Kernel: the panel step k.
func (k *kernel) Depth(t dag.Task) int { return t.K }

// OutputTiles implements dag.Kernel. The coupled kernels write two
// tiles: TSQRT updates the panel R tile (k,k) and the V tile (i,k);
// TSMQR updates the row-k tile (k,j) and the trailing tile (i,j).
func (k *kernel) OutputTiles(dt dag.Task, buf []int) []int {
	t := fromDAG(dt)
	switch t.Kind {
	case Geqrt:
		return append(buf, k.tile(t.K, t.K))
	case Tsqrt:
		return append(buf, k.tile(t.K, t.K), k.tile(t.I, t.K))
	case Ormqr:
		return append(buf, k.tile(t.K, t.J))
	default:
		return append(buf, k.tile(t.K, t.J), k.tile(t.I, t.J))
	}
}

// InputTiles implements dag.Kernel (read-modify-write tiles included).
func (k *kernel) InputTiles(dt dag.Task, buf []int) []int {
	t := fromDAG(dt)
	switch t.Kind {
	case Geqrt:
		return append(buf, k.tile(t.K, t.K))
	case Tsqrt:
		return append(buf, k.tile(t.K, t.K), k.tile(t.I, t.K))
	case Ormqr:
		return append(buf, k.tile(t.K, t.K), k.tile(t.K, t.J))
	default:
		return append(buf, k.tile(t.I, t.K), k.tile(t.K, t.J), k.tile(t.I, t.J))
	}
}

// InitialReady implements dag.Kernel.
func (k *kernel) InitialReady(ready []dag.Task) []dag.Task {
	return append(ready, toDAG(Task{Kind: Geqrt, K: 0}))
}

// Complete implements dag.Kernel: marks t done and appends the tasks
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
func (k *kernel) Complete(dt dag.Task, ready []dag.Task) []dag.Task {
	t := fromDAG(dt)
	n := k.n
	switch t.Kind {
	case Geqrt:
		k.geqrtDone[t.K] = true
		for j := t.K + 1; j < n; j++ {
			if k.updates[k.tile(t.K, j)] == t.K {
				ready = append(ready, toDAG(Task{Kind: Ormqr, K: t.K, J: j}))
			}
		}
		if i := t.K + 1; i < n && k.updates[k.tile(i, t.K)] == t.K {
			ready = append(ready, toDAG(Task{Kind: Tsqrt, I: i, K: t.K}))
		}
	case Tsqrt:
		k.tsqrtDone[k.tile(t.I, t.K)] = true
		if i := t.I + 1; i < n && k.updates[k.tile(i, t.K)] == t.K {
			ready = append(ready, toDAG(Task{Kind: Tsqrt, I: i, K: t.K}))
		}
		for j := t.K + 1; j < n; j++ {
			if k.updates[k.tile(t.I, j)] == t.K && k.tsmqrChainDone(t.I, j, t.K) {
				ready = append(ready, toDAG(Task{Kind: Tsmqr, I: t.I, J: j, K: t.K}))
			}
		}
	case Ormqr:
		k.ormqrDone[k.tile(t.K, t.J)] = true
		if i := t.K + 1; i < n && k.tsqrtDone[k.tile(i, t.K)] && k.updates[k.tile(i, t.J)] == t.K {
			ready = append(ready, toDAG(Task{Kind: Tsmqr, I: i, J: t.J, K: t.K}))
		}
	case Tsmqr:
		id := k.tile(t.I, t.J)
		k.updates[id]++
		// Chain successor in this column at the same step.
		if i := t.I + 1; i < n && k.tsqrtDone[k.tile(i, t.K)] && k.updates[k.tile(i, t.J)] == t.K {
			ready = append(ready, toDAG(Task{Kind: Tsmqr, I: i, J: t.J, K: t.K}))
		}
		// Tile (i,j) has now received all updates of steps < next; the
		// task waiting on it (if any) is determined by where the tile
		// sits relative to the next step.
		next := k.updates[id]
		switch {
		case t.I == t.J && next == t.I:
			ready = append(ready, toDAG(Task{Kind: Geqrt, K: t.I}))
		case t.I < t.J && next == t.I:
			if k.geqrtDone[t.I] {
				ready = append(ready, toDAG(Task{Kind: Ormqr, K: t.I, J: t.J}))
			}
		case t.I > t.J && next == t.J:
			chain := t.I == t.J+1 && k.geqrtDone[t.J] ||
				t.I > t.J+1 && k.tsqrtDone[k.tile(t.I-1, t.J)]
			if chain {
				ready = append(ready, toDAG(Task{Kind: Tsqrt, I: t.I, K: t.J}))
			}
		case next < min(t.I, t.J):
			if k.tsqrtDone[k.tile(t.I, next)] && k.tsmqrChainDone(t.I, t.J, next) {
				ready = append(ready, toDAG(Task{Kind: Tsmqr, I: t.I, J: t.J, K: next}))
			}
		}
	}
	return ready
}

// tsmqrChainDone reports whether TSMQR(i,j,k)'s row-k chain
// predecessor is done: ORMQR(k,j) for the first link, TSMQR(i-1,j,k)
// (encoded as updates[(i-1,j)] > k) otherwise.
func (k *kernel) tsmqrChainDone(i, j, step int) bool {
	if i == step+1 {
		return k.ormqrDone[k.tile(step, j)]
	}
	return k.updates[k.tile(i-1, j)] > step
}

// AppendState implements dag.Kernel: the per-tile TSMQR counts, then
// the GEQRT, TSQRT and ORMQR completion flags.
func (k *kernel) AppendState(dst []byte) []byte {
	for _, c := range k.updates {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	dst = core.AppendBools(dst, k.geqrtDone)
	dst = core.AppendBools(dst, k.tsqrtDone)
	return core.AppendBools(dst, k.ormqrDone)
}

// RestoreState implements dag.Kernel. Tile (i, j) takes min(i, j)
// trailing updates; GEQRT(k) ran on a fully updated diagonal tile,
// TSQRT(i, k) only below the diagonal and ORMQR(k, j) only right of it.
func (k *kernel) RestoreState(src []byte, ready []dag.Task) error {
	r := core.NewStateReader(src)
	n := k.n
	for id := range k.updates {
		k.updates[id] = r.Int(min(id/n, id%n), "QR update count")
	}
	r.Bools(k.geqrtDone)
	r.Bools(k.tsqrtDone)
	r.Bools(k.ormqrDone)
	for kk, done := range k.geqrtDone {
		if done && k.updates[k.tile(kk, kk)] != kk {
			r.Failf("qr: GEQRT(%d) done on a tile short of updates", kk)
		}
	}
	for id := range k.tsqrtDone {
		a, b := id/n, id%n
		if k.tsqrtDone[id] && (a <= b || k.updates[id] != b) {
			r.Failf("qr: TSQRT(%d,%d) done out of order", a, b)
		}
		if k.ormqrDone[id] && (a >= b || !k.geqrtDone[a] || k.updates[id] != a) {
			r.Failf("qr: ORMQR(%d,%d) done out of order", a, b)
		}
	}
	for _, t := range ready {
		if r.Ok() && !k.released(fromDAG(t)) {
			r.Failf("qr: %v is not a released task", fromDAG(t))
		}
	}
	return r.Done()
}

// released reports whether t is a QR task whose preconditions (listed
// on Complete) hold and which has not run.
func (k *kernel) released(t Task) bool {
	n := k.n
	switch t.Kind {
	case Geqrt:
		return t.I == 0 && t.J == 0 && 0 <= t.K && t.K < n &&
			!k.geqrtDone[t.K] && k.updates[k.tile(t.K, t.K)] == t.K
	case Ormqr:
		return t.I == 0 && 0 <= t.K && t.K < t.J && t.J < n &&
			k.geqrtDone[t.K] && !k.ormqrDone[k.tile(t.K, t.J)] && k.updates[k.tile(t.K, t.J)] == t.K
	case Tsqrt:
		if t.J != 0 || t.K < 0 || t.I <= t.K || t.I >= n {
			return false
		}
		chain := t.I == t.K+1 && k.geqrtDone[t.K] || t.I > t.K+1 && k.tsqrtDone[k.tile(t.I-1, t.K)]
		return chain && !k.tsqrtDone[k.tile(t.I, t.K)] && k.updates[k.tile(t.I, t.K)] == t.K
	case Tsmqr:
		return 0 <= t.K && t.K < t.I && t.I < n && t.K < t.J && t.J < n &&
			k.tsqrtDone[k.tile(t.I, t.K)] && k.updates[k.tile(t.I, t.J)] == t.K &&
			k.tsmqrChainDone(t.I, t.J, t.K)
	}
	return false
}
