package flat

import (
	"encoding/binary"
	"math"
	"sync"

	"hetsched/internal/core"
	"hetsched/internal/rng"
)

// --- Random -----------------------------------------------------------

// Random allocates one uniformly random unprocessed task per request,
// shipping whichever of its input blocks the worker misses (RandomOuter,
// RandomMatrix).
type Random struct {
	*Instance
	pool *core.TaskPool
	name string
}

// NewRandom builds k's Random strategy for an n-block run on p workers.
func NewRandom(k *Kernel, n, p int, r *rng.PCG) *Random {
	in := NewInstance(k, n, p, r)
	return &Random{Instance: in, pool: core.NewTaskPool(in.total), name: "Random" + k.Name}
}

// Next implements core.Scheduler.
func (s *Random) Next(w int) (core.Assignment, bool) { return s.NextInto(w, nil) }

// NextInto implements core.Scheduler.
func (s *Random) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	t, ok := s.pool.Draw(s.R)
	if !ok {
		return core.Assignment{}, false
	}
	s.MarkProcessed(t)
	return core.Assignment{Tasks: append(buf[:0], t), Blocks: s.receive(s.Instance, w, t)}, true
}

// Name implements core.Scheduler.
func (s *Random) Name() string { return s.name }

// AppendState implements core.Snapshotter: the pool follows the
// instance.
func (s *Random) AppendState(dst []byte) []byte {
	return s.pool.AppendState(s.Append(dst))
}

// RestoreState implements core.Snapshotter.
func (s *Random) RestoreState(src []byte) error {
	return s.Restore(src, func(r *core.StateReader) {
		s.pool.RestoreState(r, s.Left, s.admitUnprocessed())
	})
}

// --- Sorted -----------------------------------------------------------

// Sorted allocates tasks in lexicographic index order, one per request
// (SortedOuter, SortedMatrix).
type Sorted struct {
	*Instance
	cursor int
	name   string
}

// NewSorted builds k's Sorted strategy.
func NewSorted(k *Kernel, n, p int, r *rng.PCG) *Sorted {
	return &Sorted{Instance: NewInstance(k, n, p, r), name: "Sorted" + k.Name}
}

// Next implements core.Scheduler.
func (s *Sorted) Next(w int) (core.Assignment, bool) { return s.NextInto(w, nil) }

// NextInto implements core.Scheduler.
func (s *Sorted) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	for s.cursor < s.total && s.Processed.Test(s.cursor) {
		s.cursor++
	}
	if s.cursor >= s.total {
		return core.Assignment{}, false
	}
	t := core.Task(s.cursor)
	s.cursor++
	s.MarkProcessed(t)
	return core.Assignment{Tasks: append(buf[:0], t), Blocks: s.receive(s.Instance, w, t)}, true
}

// Name implements core.Scheduler.
func (s *Sorted) Name() string { return s.name }

// AppendState implements core.Snapshotter: the cursor follows the
// instance.
func (s *Sorted) AppendState(dst []byte) []byte {
	return binary.AppendUvarint(s.Append(dst), uint64(s.cursor))
}

// RestoreState implements core.Snapshotter. The processed tasks are
// exactly those below the cursor.
func (s *Sorted) RestoreState(src []byte) error {
	return s.Restore(src, func(r *core.StateReader) {
		s.cursor = r.Int(s.total, "cursor")
		if r.Ok() && s.Left != s.total-s.cursor {
			r.Failf("flat: %d tasks processed below cursor %d", s.total-s.Left, s.cursor)
		}
		for t := 0; t < s.cursor && r.Ok(); t++ {
			if !s.Processed.Test(t) {
				r.Failf("flat: task %d below cursor %d is unprocessed", t, s.cursor)
			}
		}
	})
}

// --- TwoPhases --------------------------------------------------------

// TwoPhases is Algorithm 2 (DynamicOuter2Phases, DynamicMatrix2Phases):
// the kernel's data-aware strategy until at most threshold tasks
// remain, then random single-task allocation for the end game.
type TwoPhases struct {
	*Instance
	dyn       Dynamic
	threshold int
	switched  bool
	pool      *core.TaskPool
	phase1    int
	name      string
}

// NewTwoPhases builds k's two-phase strategy, switching to the random
// phase when at most threshold tasks remain. ThresholdFromBeta derives
// the threshold from the analysis.
func NewTwoPhases(k *Kernel, n, p, threshold int, r *rng.PCG) *TwoPhases {
	in := NewInstance(k, n, p, r)
	return &TwoPhases{Instance: in, dyn: k.NewDynamic(in), threshold: max(threshold, 0), name: "Dynamic" + k.Name + "2Phases"}
}

// NewTwoPhasesAuto builds k's two-phase strategy with the speed-agnostic
// threshold of §3.6: β is optimized for a homogeneous platform with
// the same processor count, which the paper shows costs at most ~0.1%
// extra predicted volume against per-platform tuning, so the scheduler
// needs to know only n and p.
func NewTwoPhasesAuto(k *Kernel, n, p int, r *rng.PCG) *TwoPhases {
	return NewTwoPhases(k, n, p, k.ThresholdFromBeta(k.autoBeta(n, p), n), r)
}

// ThresholdFromBeta converts the analysis parameter β into the task
// threshold e^(−β)·n^d of §3.3 and §4.2.
func (k *Kernel) ThresholdFromBeta(beta float64, n int) int {
	x := math.Exp(-beta)
	for range k.Dim {
		x *= float64(n)
	}
	return int(math.Floor(x))
}

// ThresholdFromPhase1Fraction returns the threshold such that a
// fraction frac of the n^d tasks is handled in phase 1 (Fig. 2's x
// axis).
func (k *Kernel) ThresholdFromPhase1Fraction(frac float64, n int) int {
	if frac < 0 || frac > 1 {
		panic("flat: phase-1 fraction must be in [0,1]")
	}
	x := 1 - frac
	for range k.Dim {
		x *= float64(n)
	}
	return int(math.Round(x))
}

// autoBetaCache memoizes the §3.6 β by kernel, n and p: the
// optimization is a pure function of them, and a service creating many
// runs of one shape (or a cluster scenario registering thousands)
// should not redo the numeric search per run.
var autoBetaCache sync.Map // autoBetaKey → float64

type autoBetaKey struct {
	k    *Kernel
	n, p int
}

func (k *Kernel) autoBeta(n, p int) float64 {
	key := autoBetaKey{k, n, p}
	if v, ok := autoBetaCache.Load(key); ok {
		return v.(float64)
	}
	beta, _ := k.OptimalBetaHomogeneous(p, n)
	autoBetaCache.Store(key, beta)
	return beta
}

// Next implements core.Scheduler.
func (s *TwoPhases) Next(w int) (core.Assignment, bool) { return s.NextInto(w, nil) }

// NextInto implements core.Scheduler.
func (s *TwoPhases) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	if !s.switched && s.Left > 0 && s.Left <= s.threshold {
		s.switchPhase()
	}
	if !s.switched {
		return s.dyn.NextInto(w, buf)
	}
	t, ok := s.pool.Draw(s.R)
	if !ok {
		return core.Assignment{}, false
	}
	s.MarkProcessed(t)
	return core.Assignment{Tasks: append(buf[:0], t), Blocks: s.receive(s.Instance, w, t)}, true
}

// switchPhase hands the end game to the random pool, which needs only
// the instance; the first phase releases what it chooses to.
func (s *TwoPhases) switchPhase() {
	s.switched = true
	s.phase1 = s.total - s.Left
	s.pool = core.NewTaskPoolClear(s.Processed)
	s.dyn.Release()
}

// Phase1Tasks implements core.PhaseObserver.
func (s *TwoPhases) Phase1Tasks() int {
	if !s.switched {
		return s.total - s.Left
	}
	return s.phase1
}

// Name implements core.Scheduler.
func (s *TwoPhases) Name() string { return s.name }

// AppendState implements core.Snapshotter: the first phase's state,
// the switch flag and, once switched, the phase-1 task count and the
// pool.
func (s *TwoPhases) AppendState(dst []byte) []byte {
	dst = core.AppendBool(s.dyn.AppendWorkers(s.Append(dst)), s.switched)
	if s.switched {
		dst = binary.AppendUvarint(dst, uint64(s.phase1))
		dst = s.pool.AppendState(dst)
	}
	return dst
}

// RestoreState implements core.Snapshotter.
func (s *TwoPhases) RestoreState(src []byte) error {
	return s.Restore(src, func(r *core.StateReader) {
		s.dyn.RestoreWorkers(r)
		if s.switched = r.Bool(); s.switched {
			s.phase1 = r.Int(s.total-s.Left, "phase-1 task count")
			s.pool = new(core.TaskPool)
			s.pool.RestoreState(r, s.Left, s.admitUnprocessed())
		}
	})
}
