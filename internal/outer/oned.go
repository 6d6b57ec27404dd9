package outer

import (
	"hetsched/internal/core"
	"hetsched/internal/flat"
	"hetsched/internal/rng"
)

// Dynamic1D is a one-dimensional data-aware strategy: workers
// accumulate whole rows of the computation domain (one fresh a-block
// per request, computing every unprocessed task of that row), which
// forces them to eventually receive the entire vector b. It is the
// block-row decomposition a MapReduce-style job with a row-hash
// partitioner would produce, and it exists to quantify how much of the
// data-aware benefit comes specifically from exploiting the
// 2-dimensional structure (DynamicOuter) rather than from caching
// alone: 1D comm grows like (p+1)·n against the 2D strategies'
// O(√β·√p·n).
type Dynamic1D struct {
	*flat.Instance
	rows *core.IndexPool // rows not yet assigned to any worker
}

// NewDynamic1D builds the 1D row strategy. Rows are drawn from a
// single global pool, so each row is assigned to exactly one worker —
// the natural 1D block-row partition.
func NewDynamic1D(n, p int, r *rng.PCG) *Dynamic1D {
	return &Dynamic1D{Instance: flat.NewInstance(Kernel, n, p, r), rows: core.NewIndexPool(n)}
}

// Next implements core.Scheduler: ships one fresh row block a_i plus
// whichever b blocks the worker misses, and allocates the whole row of
// tasks.
func (s *Dynamic1D) Next(w int) (core.Assignment, bool) { return s.NextInto(w, nil) }

// NextInto implements core.Scheduler.
func (s *Dynamic1D) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	if s.Left == 0 {
		return core.Assignment{}, false
	}
	n := s.N
	i, ok := s.rows.Draw(s.R)
	if !ok {
		return core.Assignment{}, false
	}
	blocks := 0
	if s.Own[0][w].SetIfClear(i) {
		blocks++
	}
	tasks := buf[:0]
	for j := 0; j < n; j++ {
		t := TaskID(i, j, n)
		if s.MarkProcessed(t) {
			tasks = append(tasks, t)
			if s.Own[1][w].SetIfClear(j) {
				blocks++
			}
		}
	}
	return core.Assignment{Tasks: tasks, Blocks: blocks}, true
}

// Name implements core.Scheduler.
func (s *Dynamic1D) Name() string { return "DynamicOuter1D" }
