package cholesky

import (
	"encoding/binary"

	"hetsched/internal/core"
	"hetsched/internal/dag"
)

// toDAG and fromDAG convert between the kernel's task type (which
// carries the Cholesky-specific methods) and the engine's.
func toDAG(t Task) dag.Task   { return dag.Task{Kind: dag.Kind(t.Kind), I: t.I, J: t.J, K: t.K} }
func fromDAG(t dag.Task) Task { return Task{Kind: Kind(t.Kind), I: t.I, J: t.J, K: t.K} }

// tileID flattens a lower-triangle tile coordinate (i ≥ j).
func tileID(i, j, n int) int {
	if j > i {
		panic("cholesky: upper-triangle tile referenced")
	}
	return i*n + j
}

// kernel is the tiled-Cholesky dag.Kernel: it describes the POTRF /
// TRSM / SYRK / GEMM task graph (tile reads, writes, costs) and tracks
// the DAG progress of one run. All scheduling machinery — ready-set
// policies, what each worker holds, write serialization — lives in the
// generic dag.Coordinator.
type kernel struct {
	n int

	updatesDone []int  // per tile (i,j): number of completed UPDATE(i,j,·)
	potrfDone   []bool // per k
	trsmDone    []bool // per tile (i,k)

	total int
}

// NewKernel builds the dag.Kernel of an n×n-tile Cholesky
// factorization.
func NewKernel(n int) dag.Kernel {
	if n <= 0 {
		panic("cholesky: non-positive tile count")
	}
	return &kernel{
		n:           n,
		updatesDone: make([]int, n*n),
		potrfDone:   make([]bool, n),
		trsmDone:    make([]bool, n*n),
		total:       TaskCount(n),
	}
}

// Name implements dag.Kernel.
func (k *kernel) Name() string { return "Cholesky" }

// N implements dag.Kernel.
func (k *kernel) N() int { return k.n }

// Tiles implements dag.Kernel: only the lower block triangle is
// active, but ids are flattened over the full n×n grid.
func (k *kernel) Tiles() int { return k.n * k.n }

// Total implements dag.Kernel.
func (k *kernel) Total() int { return k.total }

// Cost implements dag.Kernel.
func (k *kernel) Cost(t dag.Task) float64 { return fromDAG(t).Cost() }

// Depth implements dag.Kernel: the elimination step k.
func (k *kernel) Depth(t dag.Task) int { return t.K }

// OutputTiles implements dag.Kernel: every Cholesky task writes
// exactly one tile.
func (k *kernel) OutputTiles(dt dag.Task, buf []int) []int {
	t := fromDAG(dt)
	switch t.Kind {
	case Potrf:
		return append(buf, tileID(t.K, t.K, k.n))
	case Trsm:
		return append(buf, tileID(t.I, t.K, k.n))
	default:
		return append(buf, tileID(t.I, t.J, k.n))
	}
}

// InputTiles implements dag.Kernel: the tiles a task reads (including
// the read-modify-write output for updates).
func (k *kernel) InputTiles(dt dag.Task, buf []int) []int {
	t := fromDAG(dt)
	n := k.n
	switch t.Kind {
	case Potrf:
		buf = append(buf, tileID(t.K, t.K, n))
	case Trsm:
		buf = append(buf, tileID(t.K, t.K, n), tileID(t.I, t.K, n))
	default:
		buf = append(buf, tileID(t.I, t.K, n), tileID(t.I, t.J, n))
		if t.J != t.I {
			buf = append(buf, tileID(t.J, t.K, n))
		}
	}
	return buf
}

// InitialReady implements dag.Kernel: POTRF(0) needs zero updates; it
// is the only initially ready task.
func (k *kernel) InitialReady(ready []dag.Task) []dag.Task {
	return append(ready, toDAG(Task{Kind: Potrf, K: 0}))
}

// Complete implements dag.Kernel: marks t done and appends newly ready
// tasks.
func (k *kernel) Complete(dt dag.Task, ready []dag.Task) []dag.Task {
	t := fromDAG(dt)
	n := k.n
	switch t.Kind {
	case Potrf:
		k.potrfDone[t.K] = true
		// Panel solves below k become ready once their tile is fully
		// updated.
		for i := t.K + 1; i < n; i++ {
			if k.updatesDone[tileID(i, t.K, n)] == t.K {
				ready = append(ready, toDAG(Task{Kind: Trsm, I: i, K: t.K}))
			}
		}
	case Trsm:
		k.trsmDone[tileID(t.I, t.K, n)] = true
		// Updates pairing this panel tile with every finished panel
		// tile of the same step k.
		for j := t.K + 1; j <= t.I; j++ {
			if k.trsmDone[tileID(j, t.K, n)] {
				ready = append(ready, toDAG(Task{Kind: Update, I: t.I, J: j, K: t.K}))
			}
		}
		for i := t.I + 1; i < n; i++ {
			if k.trsmDone[tileID(i, t.K, n)] {
				ready = append(ready, toDAG(Task{Kind: Update, I: i, J: t.I, K: t.K}))
			}
		}
	case Update:
		id := tileID(t.I, t.J, n)
		k.updatesDone[id]++
		if t.I == t.J {
			if k.updatesDone[id] == t.J {
				ready = append(ready, toDAG(Task{Kind: Potrf, K: t.J}))
			}
		} else if k.updatesDone[id] == t.J && k.potrfDone[t.J] {
			ready = append(ready, toDAG(Task{Kind: Trsm, I: t.I, K: t.J}))
		}
	}
	return ready
}

// AppendState implements dag.Kernel: the per-tile update counts, then
// the POTRF and TRSM completion flags.
func (k *kernel) AppendState(dst []byte) []byte {
	for _, c := range k.updatesDone {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	dst = core.AppendBools(dst, k.potrfDone)
	return core.AppendBools(dst, k.trsmDone)
}

// RestoreState implements dag.Kernel. Tile (i, j) of the lower triangle
// takes j updates and the upper triangle none; POTRF(k) ran on a fully
// updated diagonal tile, and TRSM(i, k) below the diagonal after it.
func (k *kernel) RestoreState(src []byte, ready []dag.Task) error {
	r := core.NewStateReader(src)
	n := k.n
	for id := range k.updatesDone {
		i, j := id/n, id%n
		max := j
		if j > i {
			max = 0
		}
		k.updatesDone[id] = r.Int(max, "cholesky update count")
	}
	r.Bools(k.potrfDone)
	r.Bools(k.trsmDone)
	for kk, done := range k.potrfDone {
		if done && k.updatesDone[kk*n+kk] != kk {
			r.Failf("cholesky: POTRF(%d) done on a tile short of updates", kk)
		}
	}
	for id, done := range k.trsmDone {
		if i, kk := id/n, id%n; done && (i <= kk || !k.potrfDone[kk] || k.updatesDone[id] != kk) {
			r.Failf("cholesky: TRSM(%d,%d) done out of order", i, kk)
		}
	}
	for _, t := range ready {
		if r.Ok() && !k.released(fromDAG(t)) {
			r.Failf("cholesky: %v is not a released task", fromDAG(t))
		}
	}
	return r.Done()
}

// released reports whether t is a Cholesky task whose inputs are final
// and which has not run: the condition under which Complete made it
// ready.
func (k *kernel) released(t Task) bool {
	n := k.n
	switch t.Kind {
	case Potrf:
		return t.I == 0 && t.J == 0 && 0 <= t.K && t.K < n &&
			!k.potrfDone[t.K] && k.updatesDone[t.K*n+t.K] == t.K
	case Trsm:
		return t.J == 0 && 0 <= t.K && t.K < t.I && t.I < n &&
			k.potrfDone[t.K] && !k.trsmDone[t.I*n+t.K] && k.updatesDone[t.I*n+t.K] == t.K
	case Update:
		return 0 <= t.K && t.K < t.J && t.J <= t.I && t.I < n &&
			k.trsmDone[t.I*n+t.K] && k.trsmDone[t.J*n+t.K] && k.updatesDone[t.I*n+t.J] < t.J
	}
	return false
}
