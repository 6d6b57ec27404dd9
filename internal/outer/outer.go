// Package outer implements the paper's outer-product kernel (§3): the
// computation of M = a·bᵀ for two vectors split into n = N/l blocks,
// i.e. n² independent block tasks T(i,j) = aᵢ·bⱼᵀ, and the four
// scheduling strategies RandomOuter, SortedOuter, DynamicOuter and
// DynamicOuter2Phases.
//
// All strategies are core.Scheduler state machines: they are driven by
// the event simulator (package sim) or by the real runtime (package
// exec). A data block is one block of a or one block of b; the
// communication volume of a strategy is the total number of blocks the
// master ships.
package outer

import (
	"fmt"
	"math"
	"sync"

	"hetsched/internal/analysis"
	"hetsched/internal/bitset"
	"hetsched/internal/core"
	"hetsched/internal/rng"
)

// TaskID encodes the block pair (i, j) of an n-block instance.
func TaskID(i, j, n int) core.Task {
	return core.Task(i*n + j)
}

// Decode returns the block pair encoded in t.
func Decode(t core.Task, n int) (i, j int) {
	return int(t) / n, int(t) % n
}

// Instance is the shared bookkeeping of one outer-product run: the
// grid size, the global processed set and the per-processor data
// ownership.
type Instance struct {
	n         int
	p         int
	processed *bitset.Bitset // n*n task bits
	remaining int
	r         *rng.PCG

	aKnown []bitset.Bitset // per processor, n bits; slab-backed
	bKnown []bitset.Bitset
}

func newInstance(n, p int, r *rng.PCG) *Instance {
	if n <= 0 || p <= 0 {
		panic(fmt.Sprintf("outer: invalid instance n=%d p=%d", n, p))
	}
	if r == nil {
		panic("outer: nil rng")
	}
	inst := &Instance{
		n:         n,
		p:         p,
		processed: bitset.New(n * n),
		remaining: n * n,
		r:         r,
		// Slab-backed ownership sets: two allocations for the whole
		// fleet instead of 2p, which dominates construction at p=10^6.
		aKnown: bitset.NewSlab(p, n),
		bKnown: bitset.NewSlab(p, n),
	}
	return inst
}

// N returns the per-dimension block count n = N/l.
func (in *Instance) N() int { return in.n }

// markProcessed marks task t processed if it was not; reports whether
// it was fresh.
func (in *Instance) markProcessed(t core.Task) bool {
	if in.processed.SetIfClear(int(t)) {
		in.remaining--
		return true
	}
	return false
}

// receive gives worker w the blocks needed for task t and returns how
// many had to be shipped.
func (in *Instance) receive(w int, t core.Task) int {
	i, j := Decode(t, in.n)
	sent := 0
	if in.aKnown[w].SetIfClear(i) {
		sent++
	}
	if in.bKnown[w].SetIfClear(j) {
		sent++
	}
	return sent
}

// unprocessedTasks returns all tasks not yet processed.
func (in *Instance) unprocessedTasks() []core.Task {
	tasks := make([]core.Task, 0, in.remaining)
	in.processed.ForEachClear(func(i int) {
		tasks = append(tasks, core.Task(i))
	})
	return tasks
}

// --- RandomOuter -----------------------------------------------------

// Random allocates one uniformly random unprocessed task per request,
// shipping whichever of its two input blocks the worker misses
// (strategy RandomOuter).
type Random struct {
	inst *Instance
	pool *core.TaskPool
}

// NewRandom builds a RandomOuter scheduler for an n-block instance on
// p workers.
func NewRandom(n, p int, r *rng.PCG) *Random {
	inst := newInstance(n, p, r)
	tasks := make([]core.Task, 0, n*n)
	for t := 0; t < n*n; t++ {
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
func (s *Random) Total() int { return s.inst.n * s.inst.n }

// P implements core.Scheduler.
func (s *Random) P() int { return s.inst.p }

// Name implements core.Scheduler.
func (s *Random) Name() string { return "RandomOuter" }

// --- SortedOuter -----------------------------------------------------

// Sorted allocates tasks in lexicographic (i, j) order, one per
// request (strategy SortedOuter).
type Sorted struct {
	inst   *Instance
	cursor int
}

// NewSorted builds a SortedOuter scheduler.
func NewSorted(n, p int, r *rng.PCG) *Sorted {
	return &Sorted{inst: newInstance(n, p, r)}
}

// Next implements core.Scheduler.
func (s *Sorted) Next(w int) (core.Assignment, bool) { return s.NextInto(w, nil) }

// NextInto implements core.Scheduler.
func (s *Sorted) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	n2 := s.inst.n * s.inst.n
	for s.cursor < n2 && s.inst.processed.Test(s.cursor) {
		s.cursor++
	}
	if s.cursor >= n2 {
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
func (s *Sorted) Total() int { return s.inst.n * s.inst.n }

// P implements core.Scheduler.
func (s *Sorted) P() int { return s.inst.p }

// Name implements core.Scheduler.
func (s *Sorted) Name() string { return "SortedOuter" }

// --- DynamicOuter ----------------------------------------------------

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
	inst *Instance
	dyn  []dynState
}

// NewDynamic builds a DynamicOuter scheduler. Per-worker state (index
// pools, known lists) is materialized lazily on a worker's first step:
// constructing a million-worker run must not cost two million index
// pools when only the few thousand workers that win grants ever draw.
func NewDynamic(n, p int, r *rng.PCG) *Dynamic {
	return &Dynamic{inst: newInstance(n, p, r), dyn: make([]dynState, p)}
}

// Next implements core.Scheduler. It performs one step of Algorithm 1
// for worker w.
func (s *Dynamic) Next(w int) (core.Assignment, bool) { return s.NextInto(w, nil) }

// NextInto implements core.Scheduler.
func (s *Dynamic) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	if s.inst.remaining == 0 {
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
		st.init(s.inst.n)
	}
	i, okI := st.iPool.Draw(s.inst.r)
	j, okJ := st.jPool.Draw(s.inst.r)
	if !okI && !okJ {
		// Worker knows every block: every task has necessarily been
		// allocated already, so remaining must be zero.
		return core.Assignment{}, false
	}

	tasks := buf[:0]
	blocks := 0
	n := s.inst.n
	processed := s.inst.processed
	if okJ {
		st.jKnown = append(st.jKnown, int32(j))
	}
	if okI {
		blocks++
		s.inst.aKnown[w].Set(i)
		// Row i against every known column, the fresh j last.
		tasks = bitset.AppendNewlySet(processed, tasks, i*n, 1, st.jKnown)
	}
	if okJ {
		blocks++
		s.inst.bKnown[w].Set(j)
		// Column j against every previously known row (the pair (i,j)
		// was handled above).
		tasks = bitset.AppendNewlySet(processed, tasks, j, n, st.iKnown)
	}
	if okI {
		st.iKnown = append(st.iKnown, int32(i))
	}
	s.inst.remaining -= len(tasks)
	return core.Assignment{Tasks: tasks, Blocks: blocks}, true
}

// Known returns the number of a-blocks (equivalently b-blocks, up to
// the end-game boundary) worker w currently holds. Used by the
// mean-field convergence experiment to sample x = Known/n.
func (s *Dynamic) Known(w int) int { return len(s.dyn[w].iKnown) }

// Remaining implements core.Scheduler.
func (s *Dynamic) Remaining() int { return s.inst.remaining }

// Total implements core.Scheduler.
func (s *Dynamic) Total() int { return s.inst.n * s.inst.n }

// P implements core.Scheduler.
func (s *Dynamic) P() int { return s.inst.p }

// Name implements core.Scheduler.
func (s *Dynamic) Name() string { return "DynamicOuter" }

// --- DynamicOuter2Phases ----------------------------------------------

// TwoPhases is Algorithm 2 (DynamicOuter2Phases): run DynamicOuter
// until at most Threshold tasks remain, then fall back to random
// single-task allocation for the end game.
type TwoPhases struct {
	dyn       *Dynamic
	threshold int
	switched  bool
	pool      *core.TaskPool
	phase1    int
}

// NewTwoPhases builds a DynamicOuter2Phases scheduler switching to the
// random phase when at most threshold tasks remain. Use
// ThresholdFromBeta to derive the threshold from the analysis.
func NewTwoPhases(n, p int, threshold int, r *rng.PCG) *TwoPhases {
	if threshold < 0 {
		threshold = 0
	}
	return &TwoPhases{dyn: NewDynamic(n, p, r), threshold: threshold}
}

// ThresholdFromBeta converts the analysis parameter β into the task
// threshold e^(−β)·n² of §3.3.
func ThresholdFromBeta(beta float64, n int) int {
	return int(math.Floor(math.Exp(-beta) * float64(n) * float64(n)))
}

// NewTwoPhasesAuto builds a DynamicOuter2Phases scheduler with the
// speed-agnostic threshold of §3.6: β is optimized analytically for a
// homogeneous platform with the same processor count, which the paper
// shows costs at most ~0.1% extra predicted volume versus
// per-platform tuning — so the scheduler needs to know only n and p.
func NewTwoPhasesAuto(n, p int, r *rng.PCG) *TwoPhases {
	return NewTwoPhases(n, p, ThresholdFromBeta(autoBeta(n, p), n), r)
}

// autoBetaCache memoizes the §3.6 homogeneous β by (n, p): the
// optimization is a pure function of the two ints, and a service
// creating many runs of the same shape (or a cluster scenario
// registering thousands) should not redo the numeric search per run.
var autoBetaCache sync.Map // [2]int{n, p} → float64

func autoBeta(n, p int) float64 {
	key := [2]int{n, p}
	if v, ok := autoBetaCache.Load(key); ok {
		return v.(float64)
	}
	// The O(1) homogeneous form: building and scanning a p-length
	// uniform speed vector ~640 times costs seconds at p=10⁶.
	beta, _ := analysis.OptimalBetaOuterHomogeneous(p, n)
	autoBetaCache.Store(key, beta)
	return beta
}

// ThresholdFromPhase1Fraction returns the threshold such that a
// fraction frac of the n² tasks is handled in phase 1 (Fig. 2's x
// axis).
func ThresholdFromPhase1Fraction(frac float64, n int) int {
	if frac < 0 || frac > 1 {
		panic("outer: phase-1 fraction must be in [0,1]")
	}
	return int(math.Round((1 - frac) * float64(n) * float64(n)))
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

// switchPhase hands the end game to the random pool. Phase 2 needs only
// the ownership bitsets, so every worker's I and J lists and draw pools
// are dropped here, and the state codec writes each worker absent.
func (s *TwoPhases) switchPhase() {
	inst := s.dyn.inst
	s.switched = true
	s.phase1 = inst.n*inst.n - inst.remaining
	s.pool = core.NewTaskPool(inst.unprocessedTasks())
	clear(s.dyn.dyn)
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
func (s *TwoPhases) Name() string { return "DynamicOuter2Phases" }
