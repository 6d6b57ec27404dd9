// Package matmul is the paper's matrix-multiplication kernel (§4):
// C = A·B with all three matrices split into n×n blocks of size l×l,
// i.e. n³ independent block tasks T(i,j,k): C(i,j) += A(i,k)·B(k,j).
// Every block of A, B and C is a data block: C travels back to the
// master, and the paper counts overall volume.
//
// The package adds to internal/flat only what is matrix
// multiplication's own: the task encoding, its charge rule
// (Kernel.Receive) and DynamicMatrix (Algorithm 3) with its per-worker
// state. RandomMatrix, SortedMatrix and DynamicMatrix2Phases are
// flat.NewRandom, flat.NewSorted and flat.NewTwoPhases on Kernel.
//
// Data-ownership invariant of the data-aware strategy (Algorithm 3):
// worker u always knows exactly the cross products I×K of A, K×J of B
// and I×J of C for its three index sets I, J, K, which all have the
// same size. One step extends each set by one fresh index, shipping
// 3·(2y+1) blocks when the sets have size y.
package matmul

import (
	"hetsched/internal/analysis"
	"hetsched/internal/bitset"
	"hetsched/internal/core"
	"hetsched/internal/flat"
	"hetsched/internal/rng"
)

// Kernel is matrix multiplication as internal/flat runs it: tasks
// (i, j, k) over the n² blocks of A (slab 0, keyed i·n+k), B (slab 1,
// k·n+j) and C (slab 2, i·n+j).
var Kernel = &flat.Kernel{
	Name:                   "Matrix",
	Dim:                    3,
	Receive:                receive,
	NewDynamic:             func(in *flat.Instance) flat.Dynamic { return newDynamic(in) },
	LowerBound:             analysis.LowerBoundMatrix,
	Ratio:                  analysis.RatioMatrix,
	OptimalBeta:            analysis.OptimalBetaMatrix,
	OptimalBetaHomogeneous: analysis.OptimalBetaMatrixHomogeneous,
	APosterioriLB:          analysis.APosterioriLBMatrix,
	G:                      analysis.GMatrix,
}

// TaskID encodes the block triple (i, j, k) of an n-block instance.
func TaskID(i, j, k, n int) core.Task {
	return core.Task((int64(i)*int64(n)+int64(j))*int64(n) + int64(k))
}

// Decode returns the block triple encoded in t.
func Decode(t core.Task, n int) (i, j, k int) {
	v := int64(t)
	n64 := int64(n)
	k = int(v % n64)
	v /= n64
	j = int(v % n64)
	i = int(v / n64)
	return
}

// receive gives worker w the three blocks of task (i, j, k).
func receive(in *flat.Instance, w int, t core.Task) int {
	i, j, k := Decode(t, in.N)
	n := in.N
	return in.Own[0][w].Add(i*n+k) + in.Own[1][w].Add(k*n+j) + in.Own[2][w].Add(i*n+j)
}

type dynState struct {
	iKnown, jKnown, kKnown []int32
	iPool, jPool, kPool    *core.IndexPool
}

// Dynamic is the data-aware strategy of Algorithm 3 (DynamicMatrix).
// Each step draws one fresh index per dimension, ships the blocks that
// extend the worker's cross-product ownership, and allocates every
// still-unprocessed task newly covered.
type Dynamic struct {
	*flat.Instance
	dyn []dynState
	// kSet[w] holds exactly kKnown's indices, the mask against which
	// a k-run's words count its new tasks. It is derived state: the
	// state codec writes kKnown and rebuilds it.
	kSet []bitset.Bitset
}

// NewDynamic builds a DynamicMatrix scheduler.
func NewDynamic(n, p int, r *rng.PCG) *Dynamic {
	return newDynamic(flat.NewInstance(Kernel, n, p, r))
}

func newDynamic(in *flat.Instance) *Dynamic {
	n, p := in.N, in.P()
	d := &Dynamic{Instance: in, dyn: make([]dynState, p), kSet: bitset.NewSlab(p, n)}
	for w := 0; w < p; w++ {
		d.dyn[w] = dynState{
			iPool: core.NewIndexPool(n),
			jPool: core.NewIndexPool(n),
			kPool: core.NewIndexPool(n),
		}
	}
	return d
}

// Next implements core.Scheduler.
func (s *Dynamic) Next(w int) (core.Assignment, bool) { return s.NextInto(w, nil) }

// NextInto implements core.Scheduler.
func (s *Dynamic) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	if s.Left == 0 {
		return core.Assignment{}, false
	}
	return s.step(w, buf)
}

// step performs one extension step of Algorithm 3 for worker w,
// appending the allocated tasks to buf[:0].
func (s *Dynamic) step(w int, buf core.TaskBuf) (core.Assignment, bool) {
	st := &s.dyn[w]
	i, okI := st.iPool.Draw(s.R)
	j, okJ := st.jPool.Draw(s.R)
	k, okK := st.kPool.Draw(s.R)
	if !okI && !okJ && !okK {
		return core.Assignment{}, false
	}

	n := s.N
	oldI, oldJ, oldK := len(st.iKnown), len(st.jKnown), len(st.kKnown)
	newI, newJ, newK := oldI, oldJ, oldK
	if okI {
		newI++
	}
	if okJ {
		newJ++
	}
	if okK {
		newK++
	}
	// Cross-product ownership growth: A covers I×K, B covers K×J, C
	// covers I×J.
	blocks := (newI*newK - oldI*oldK) + (newK*newJ - oldK*oldJ) + (newI*newJ - oldI*oldJ)

	// Record per-block ownership so that a later random phase (and the
	// exec runtime) can query it. The loops below touch exactly the
	// freshly shipped blocks.
	a, b, c := &s.Own[0][w], &s.Own[1][w], &s.Own[2][w]
	if okI {
		for _, kk := range st.kKnown {
			a.Set(i*n + int(kk))
		}
		for _, jj := range st.jKnown {
			c.Set(i*n + int(jj))
		}
		if okK {
			a.Set(i*n + k)
		}
		if okJ {
			c.Set(i*n + j)
		}
	}
	if okJ {
		for _, kk := range st.kKnown {
			b.Set(int(kk)*n + j)
		}
		for _, ii := range st.iKnown {
			c.Set(int(ii)*n + j)
		}
		if okK {
			b.Set(k*n + j)
		}
	}
	if okK {
		for _, jj := range st.jKnown {
			b.Set(k*n + int(jj))
		}
		for _, ii := range st.iKnown {
			a.Set(int(ii)*n + k)
		}
	}

	// Enumerate the newly covered cube region I'×J'×K' \ I×J×K as
	// three disjoint slabs (fresh-i slab, fresh-j slab, fresh-k slab).
	// k is TaskID's stride-1 dimension, so each (i, j) pair's run over
	// K' is one AppendNewlySetIn, counted against kSet first; the
	// fresh indices join J and K first, last in their lists, as the
	// enumeration order requires.
	if okJ {
		st.jKnown = append(st.jKnown, int32(j))
	}
	kSet := &s.kSet[w]
	if okK {
		st.kKnown = append(st.kKnown, int32(k))
		kSet.Set(k)
	}
	tasks := buf[:0]
	processed := s.Processed
	if okI {
		for _, jj := range st.jKnown {
			tasks = bitset.AppendNewlySetIn(processed, tasks, (i*n+int(jj))*n, st.kKnown, kSet)
		}
	}
	if okJ {
		for _, ii := range st.iKnown { // old I only: fresh i handled above
			tasks = bitset.AppendNewlySetIn(processed, tasks, (int(ii)*n+j)*n, st.kKnown, kSet)
		}
	}
	if okK {
		for _, ii := range st.iKnown { // old I × old J only
			tasks = bitset.AppendNewlySet(processed, tasks, int(ii)*n*n+k, n, st.jKnown[:oldJ])
		}
	}
	if okI {
		st.iKnown = append(st.iKnown, int32(i))
	}
	s.Left -= len(tasks)
	return core.Assignment{Tasks: tasks, Blocks: blocks}, true
}

// Known implements flat.Dynamic: the size of worker w's index sets
// (|I| = |J| = |K| up to the end-game boundary).
func (s *Dynamic) Known(w int) int { return len(s.dyn[w].iKnown) }

// Release implements flat.Dynamic: the worker state stays, as the
// state codec has no presence flag to write a worker absent with.
func (s *Dynamic) Release() {}

// Name implements core.Scheduler.
func (s *Dynamic) Name() string { return "DynamicMatrix" }
