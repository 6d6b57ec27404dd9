// Package matmul implements the paper's matrix-multiplication kernel
// (§4): C = A·B with all three matrices split into n×n blocks of size
// l×l, i.e. n³ independent block tasks T(i,j,k): C(i,j) += A(i,k)·B(k,j),
// and the four strategies RandomMatrix, SortedMatrix, DynamicMatrix
// and DynamicMatrix2Phases.
//
// Data-ownership invariant of the data-aware strategy (Algorithm 3):
// worker u always knows exactly the cross products I×K of A, K×J of B
// and I×J of C for its three index sets I, J, K, which all have the
// same size. One step extends each set by one fresh index, shipping
// 3·(2y+1) blocks when the sets have size y.
package matmul

import (
	"fmt"
	"math"
	"sync"

	"hetsched/internal/analysis"
	"hetsched/internal/bitset"
	"hetsched/internal/core"
	"hetsched/internal/rng"
)

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

// Instance is the shared bookkeeping of one matrix-multiplication run.
type Instance struct {
	n         int
	p         int
	processed *bitset.Bitset // n³ task bits
	remaining int
	r         *rng.PCG

	// Per-worker per-block ownership, keyed by flat (row*n+col) pair
	// index: aKnown[(i,k)], bKnown[(k,j)], cKnown[(i,j)]. The dynamic
	// strategy maintains these lazily (its ownership is the cross
	// product of its index sets); the random strategies and phase 2
	// maintain them eagerly.
	aKnown []*bitset.Bitset
	bKnown []*bitset.Bitset
	cKnown []*bitset.Bitset
}

func newInstance(n, p int, r *rng.PCG) *Instance {
	if n <= 0 || p <= 0 {
		panic(fmt.Sprintf("matmul: invalid instance n=%d p=%d", n, p))
	}
	if r == nil {
		panic("matmul: nil rng")
	}
	n3 := n * n * n
	inst := &Instance{
		n:         n,
		p:         p,
		processed: bitset.New(n3),
		remaining: n3,
		r:         r,
		aKnown:    make([]*bitset.Bitset, p),
		bKnown:    make([]*bitset.Bitset, p),
		cKnown:    make([]*bitset.Bitset, p),
	}
	for w := 0; w < p; w++ {
		inst.aKnown[w] = bitset.New(n * n)
		inst.bKnown[w] = bitset.New(n * n)
		inst.cKnown[w] = bitset.New(n * n)
	}
	return inst
}

// N returns the per-dimension block count n = N/l.
func (in *Instance) N() int { return in.n }

func (in *Instance) markProcessed(t core.Task) bool {
	if in.processed.SetIfClear(int(t)) {
		in.remaining--
		return true
	}
	return false
}

// receive gives worker w the three blocks of task t and returns how
// many had to be shipped (the C block counts as communication too: it
// travels back to the master, and the paper counts overall volume).
func (in *Instance) receive(w int, t core.Task) int {
	i, j, k := Decode(t, in.n)
	n := in.n
	sent := 0
	if in.aKnown[w].SetIfClear(i*n + k) {
		sent++
	}
	if in.bKnown[w].SetIfClear(k*n + j) {
		sent++
	}
	if in.cKnown[w].SetIfClear(i*n + j) {
		sent++
	}
	return sent
}

func (in *Instance) unprocessedTasks() []core.Task {
	tasks := make([]core.Task, 0, in.remaining)
	in.processed.ForEachClear(func(i int) {
		tasks = append(tasks, core.Task(i))
	})
	return tasks
}

// --- RandomMatrix ----------------------------------------------------

// Random allocates one uniformly random unprocessed task per request
// (strategy RandomMatrix), shipping the up-to-three blocks the worker
// misses.
type Random struct {
	inst *Instance
	pool *core.TaskPool
}

// NewRandom builds a RandomMatrix scheduler for an n-block instance on
// p workers.
func NewRandom(n, p int, r *rng.PCG) *Random {
	inst := newInstance(n, p, r)
	n3 := n * n * n
	tasks := make([]core.Task, 0, n3)
	for t := 0; t < n3; t++ {
		tasks = append(tasks, core.Task(t))
	}
	return &Random{inst: inst, pool: core.NewTaskPool(tasks)}
}

// Next implements core.Scheduler.
func (s *Random) Next(w int) (core.Assignment, bool) { return s.NextInto(w, nil) }

// NextInto implements core.Scheduler.
func (s *Random) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	t, ok := s.pool.Draw(s.inst.r)
	if !ok {
		return core.Assignment{}, false
	}
	s.inst.markProcessed(t)
	return core.Assignment{Tasks: append(buf[:0], t), Blocks: s.inst.receive(w, t)}, true
}

// Remaining implements core.Scheduler.
func (s *Random) Remaining() int { return s.inst.remaining }

// Total implements core.Scheduler.
func (s *Random) Total() int { n := s.inst.n; return n * n * n }

// P implements core.Scheduler.
func (s *Random) P() int { return s.inst.p }

// Name implements core.Scheduler.
func (s *Random) Name() string { return "RandomMatrix" }

// --- SortedMatrix ----------------------------------------------------

// Sorted allocates tasks in lexicographic (i, j, k) order (strategy
// SortedMatrix).
type Sorted struct {
	inst   *Instance
	cursor int
}

// NewSorted builds a SortedMatrix scheduler.
func NewSorted(n, p int, r *rng.PCG) *Sorted {
	return &Sorted{inst: newInstance(n, p, r)}
}

// Next implements core.Scheduler.
func (s *Sorted) Next(w int) (core.Assignment, bool) { return s.NextInto(w, nil) }

// NextInto implements core.Scheduler.
func (s *Sorted) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	n3 := s.inst.n * s.inst.n * s.inst.n
	for s.cursor < n3 && s.inst.processed.Test(s.cursor) {
		s.cursor++
	}
	if s.cursor >= n3 {
		return core.Assignment{}, false
	}
	t := core.Task(s.cursor)
	s.cursor++
	s.inst.markProcessed(t)
	return core.Assignment{Tasks: append(buf[:0], t), Blocks: s.inst.receive(w, t)}, true
}

// Remaining implements core.Scheduler.
func (s *Sorted) Remaining() int { return s.inst.remaining }

// Total implements core.Scheduler.
func (s *Sorted) Total() int { n := s.inst.n; return n * n * n }

// P implements core.Scheduler.
func (s *Sorted) P() int { return s.inst.p }

// Name implements core.Scheduler.
func (s *Sorted) Name() string { return "SortedMatrix" }

// --- DynamicMatrix ---------------------------------------------------

type dynState struct {
	iKnown, jKnown, kKnown []int32
	iPool, jPool, kPool    *core.IndexPool
}

// Dynamic is the data-aware strategy of Algorithm 3 (DynamicMatrix).
// Each step draws one fresh index per dimension, ships the blocks that
// extend the worker's cross-product ownership, and allocates every
// still-unprocessed task newly covered.
type Dynamic struct {
	inst *Instance
	dyn  []dynState
}

// NewDynamic builds a DynamicMatrix scheduler.
func NewDynamic(n, p int, r *rng.PCG) *Dynamic {
	inst := newInstance(n, p, r)
	d := &Dynamic{inst: inst, dyn: make([]dynState, p)}
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
	if s.inst.remaining == 0 {
		return core.Assignment{}, false
	}
	return s.step(w, buf)
}

// step performs one extension step of Algorithm 3 for worker w,
// appending the allocated tasks to buf[:0].
func (s *Dynamic) step(w int, buf core.TaskBuf) (core.Assignment, bool) {
	st := &s.dyn[w]
	i, okI := st.iPool.Draw(s.inst.r)
	j, okJ := st.jPool.Draw(s.inst.r)
	k, okK := st.kPool.Draw(s.inst.r)
	if !okI && !okJ && !okK {
		return core.Assignment{}, false
	}

	n := s.inst.n
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
	a, b, c := s.inst.aKnown[w], s.inst.bKnown[w], s.inst.cKnown[w]
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
	// K' is one AppendNewlySet; the fresh indices join J and K first,
	// last in their lists, as the enumeration order requires.
	if okJ {
		st.jKnown = append(st.jKnown, int32(j))
	}
	if okK {
		st.kKnown = append(st.kKnown, int32(k))
	}
	tasks := buf[:0]
	processed := s.inst.processed
	if okI {
		for _, jj := range st.jKnown {
			tasks = bitset.AppendNewlySet(processed, tasks, (i*n+int(jj))*n, 1, st.kKnown)
		}
	}
	if okJ {
		for _, ii := range st.iKnown { // old I only: fresh i handled above
			tasks = bitset.AppendNewlySet(processed, tasks, (int(ii)*n+j)*n, 1, st.kKnown)
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
	s.inst.remaining -= len(tasks)
	return core.Assignment{Tasks: tasks, Blocks: blocks}, true
}

// Known returns the size of worker w's index sets (|I| = |J| = |K| up
// to the end-game boundary). Used by the mean-field convergence
// experiment to sample x = Known/n.
func (s *Dynamic) Known(w int) int { return len(s.dyn[w].iKnown) }

// Remaining implements core.Scheduler.
func (s *Dynamic) Remaining() int { return s.inst.remaining }

// Total implements core.Scheduler.
func (s *Dynamic) Total() int { n := s.inst.n; return n * n * n }

// P implements core.Scheduler.
func (s *Dynamic) P() int { return s.inst.p }

// Name implements core.Scheduler.
func (s *Dynamic) Name() string { return "DynamicMatrix" }

// --- DynamicMatrix2Phases ---------------------------------------------

// TwoPhases is DynamicMatrix2Phases: DynamicMatrix until at most
// Threshold tasks remain, then random single-task allocation.
type TwoPhases struct {
	dyn       *Dynamic
	threshold int
	switched  bool
	pool      *core.TaskPool
	phase1    int
}

// NewTwoPhases builds a DynamicMatrix2Phases scheduler switching when
// at most threshold tasks remain.
func NewTwoPhases(n, p int, threshold int, r *rng.PCG) *TwoPhases {
	if threshold < 0 {
		threshold = 0
	}
	return &TwoPhases{dyn: NewDynamic(n, p, r), threshold: threshold}
}

// ThresholdFromBeta converts β into the task threshold e^(−β)·n³ of
// §4.2.
func ThresholdFromBeta(beta float64, n int) int {
	return int(math.Floor(math.Exp(-beta) * float64(n) * float64(n) * float64(n)))
}

// NewTwoPhasesAuto builds a DynamicMatrix2Phases scheduler with the
// speed-agnostic threshold of §3.6: β is optimized analytically for a
// homogeneous platform with the same processor count, so the scheduler
// needs to know only n and p.
func NewTwoPhasesAuto(n, p int, r *rng.PCG) *TwoPhases {
	return NewTwoPhases(n, p, ThresholdFromBeta(autoBeta(n, p), n), r)
}

// autoBetaCache memoizes the speed-agnostic β by (n, p), exactly as in
// internal/outer: the optimization is a pure function of the two ints
// and should not be redone per run-creation.
var autoBetaCache sync.Map // [2]int{n, p} → float64

func autoBeta(n, p int) float64 {
	key := [2]int{n, p}
	if v, ok := autoBetaCache.Load(key); ok {
		return v.(float64)
	}
	beta, _ := analysis.OptimalBetaMatrixHomogeneous(p, n)
	autoBetaCache.Store(key, beta)
	return beta
}

// ThresholdFromPhase1Fraction returns the threshold such that a
// fraction frac of the n³ tasks is handled in phase 1.
func ThresholdFromPhase1Fraction(frac float64, n int) int {
	if frac < 0 || frac > 1 {
		panic("matmul: phase-1 fraction must be in [0,1]")
	}
	return int(math.Round((1 - frac) * float64(n) * float64(n) * float64(n)))
}

// Next implements core.Scheduler.
func (s *TwoPhases) Next(w int) (core.Assignment, bool) { return s.NextInto(w, nil) }

// NextInto implements core.Scheduler.
func (s *TwoPhases) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	inst := s.dyn.inst
	if !s.switched && inst.remaining > 0 && inst.remaining <= s.threshold {
		s.switchPhase()
	}
	if !s.switched {
		return s.dyn.NextInto(w, buf)
	}
	t, ok := s.pool.Draw(inst.r)
	if !ok {
		return core.Assignment{}, false
	}
	inst.markProcessed(t)
	return core.Assignment{Tasks: append(buf[:0], t), Blocks: inst.receive(w, t)}, true
}

func (s *TwoPhases) switchPhase() {
	inst := s.dyn.inst
	s.switched = true
	s.phase1 = s.Total() - inst.remaining
	s.pool = core.NewTaskPool(inst.unprocessedTasks())
}

// Phase1Tasks implements core.PhaseObserver.
func (s *TwoPhases) Phase1Tasks() int {
	if !s.switched {
		return s.dyn.Total() - s.dyn.Remaining()
	}
	return s.phase1
}

// Remaining implements core.Scheduler.
func (s *TwoPhases) Remaining() int { return s.dyn.Remaining() }

// Total implements core.Scheduler.
func (s *TwoPhases) Total() int { return s.dyn.Total() }

// P implements core.Scheduler.
func (s *TwoPhases) P() int { return s.dyn.P() }

// Name implements core.Scheduler.
func (s *TwoPhases) Name() string { return "DynamicMatrix2Phases" }
