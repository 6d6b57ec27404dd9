// Package outer is the paper's outer-product kernel (§3): M = a·bᵀ for
// two vectors split into n = N/l blocks, i.e. n² independent block tasks
// T(i,j) = aᵢ·bⱼᵀ. A data block is one block of a or one block of b.
//
// The package adds to internal/flat only what is the outer product's
// own: the task encoding, its charge rule (Kernel.Receive), DynamicOuter
// (Algorithm 1) with its per-worker state, and the one-dimensional
// Dynamic1D. RandomOuter, SortedOuter and DynamicOuter2Phases are
// flat.NewRandom, flat.NewSorted and flat.NewTwoPhases on Kernel.
package outer

import (
	"hetsched/internal/analysis"
	"hetsched/internal/bitset"
	"hetsched/internal/core"
	"hetsched/internal/flat"
	"hetsched/internal/rng"
)

// Kernel is the outer product as internal/flat runs it: tasks (i, j)
// over the n blocks of a (slab 0) and of b (slab 1).
var Kernel = &flat.Kernel{
	Name:                   "Outer",
	Dim:                    2,
	Receive:                receive,
	NewDynamic:             func(in *flat.Instance) flat.Dynamic { return newDynamic(in) },
	LowerBound:             analysis.LowerBoundOuter,
	Ratio:                  analysis.RatioOuter,
	OptimalBeta:            analysis.OptimalBetaOuter,
	OptimalBetaHomogeneous: analysis.OptimalBetaOuterHomogeneous,
	APosterioriLB:          analysis.APosterioriLBOuter,
	G:                      analysis.GOuter,
}

// TaskID encodes the block pair (i, j) of an n-block instance.
func TaskID(i, j, n int) core.Task {
	return core.Task(i*n + j)
}

// Decode returns the block pair encoded in t.
func Decode(t core.Task, n int) (i, j int) {
	return int(t) / n, int(t) % n
}

// receive gives worker w a_i and b_j, the blocks of task (i, j).
func receive(in *flat.Instance, w int, t core.Task) int {
	i, j := Decode(t, in.N)
	return in.Own[0][w].Add(i) + in.Own[1][w].Add(j)
}

// dynState is the per-processor state of the data-aware strategy: the
// index sets I and J of Algorithm 1 plus pools of still-unknown
// indices for uniform fresh draws.
type dynState struct {
	iKnown []int32 // I: indices i with a_i on the worker
	jKnown []int32 // J: indices j with b_j on the worker
	iPool  *core.IndexPool
	jPool  *core.IndexPool
}

// init materializes a worker's state on its first step: both
// known-index lists reach exactly n entries at the end-game, so one
// full-capacity allocation each here keeps every later append in place
// — and workers that never poll (most of a parked 100k fleet) never pay
// it, nor their draw pools.
func (st *dynState) init(n int) {
	slab := make([]int32, 2*n)
	st.iKnown = slab[:0:n]
	st.jKnown = slab[n : n : 2*n]
	st.iPool = core.NewIndexPool(n)
	st.jPool = core.NewIndexPool(n)
}

// Dynamic is the data-aware strategy of Algorithm 1 (DynamicOuter):
// each request ships one fresh block of a and one fresh block of b and
// allocates every still-unprocessed task that the enlarged sets I×J
// newly cover.
type Dynamic struct {
	*flat.Instance
	dyn []dynState
}

// NewDynamic builds a DynamicOuter scheduler. Per-worker state (index
// pools, known lists) is materialized lazily on a worker's first step:
// constructing a million-worker run must not cost two million index
// pools when only the few thousand workers that win grants ever draw.
func NewDynamic(n, p int, r *rng.PCG) *Dynamic {
	return newDynamic(flat.NewInstance(Kernel, n, p, r))
}

func newDynamic(in *flat.Instance) *Dynamic {
	return &Dynamic{Instance: in, dyn: make([]dynState, in.P())}
}

// Next implements core.Scheduler. It performs one step of Algorithm 1
// for worker w.
func (s *Dynamic) Next(w int) (core.Assignment, bool) { return s.NextInto(w, nil) }

// NextInto implements core.Scheduler.
func (s *Dynamic) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	if s.Left == 0 {
		return core.Assignment{}, false
	}
	return s.step(w, buf)
}

// step draws fresh indices for worker w, ships the corresponding
// blocks and allocates the newly computable unprocessed tasks,
// appending them to buf[:0].
func (s *Dynamic) step(w int, buf core.TaskBuf) (core.Assignment, bool) {
	st := &s.dyn[w]
	if st.iPool == nil {
		st.init(s.N)
	}
	i, okI := st.iPool.Draw(s.R)
	j, okJ := st.jPool.Draw(s.R)
	if !okI && !okJ {
		// Worker knows every block: every task has necessarily been
		// allocated already, so remaining must be zero.
		return core.Assignment{}, false
	}

	tasks := buf[:0]
	blocks := 0
	n := s.N
	processed := s.Processed
	a, b := &s.Own[0][w], &s.Own[1][w]
	if okJ {
		blocks++
		st.jKnown = append(st.jKnown, int32(j))
		b.Set(j)
	}
	if okI {
		blocks++
		a.Set(i)
		// Row i against every known column, the fresh j last. The
		// worker's b set holds exactly those columns, so the row's
		// words count the new tasks first.
		tasks = bitset.AppendNewlySetIn(processed, tasks, i*n, st.jKnown, b)
	}
	if okJ {
		// Column j against every previously known row (the pair (i,j)
		// was handled above).
		tasks = bitset.AppendNewlySet(processed, tasks, j, n, st.iKnown)
	}
	if okI {
		st.iKnown = append(st.iKnown, int32(i))
	}
	s.Left -= len(tasks)
	return core.Assignment{Tasks: tasks, Blocks: blocks}, true
}

// Known implements flat.Dynamic: the number of a-blocks (equivalently
// b-blocks, up to the end-game boundary) worker w holds.
func (s *Dynamic) Known(w int) int { return len(s.dyn[w].iKnown) }

// Release implements flat.Dynamic: phase 2 needs only the ownership
// bitsets, so every worker's I and J lists and draw pools are dropped,
// and the state codec writes each worker absent.
func (s *Dynamic) Release() { clear(s.dyn) }

// Name implements core.Scheduler.
func (s *Dynamic) Name() string { return "DynamicOuter" }
