package cholesky

import (
	"hetsched/internal/dag"
	"hetsched/internal/rng"
)

// Coordinator is the master-side state of a tiled-Cholesky run. It is
// a thin adapter over the generic dag.Coordinator parameterized by the
// Cholesky kernel, preserved so in-process callers keep the typed
// Task-level API. All methods must be called from a single goroutine.
type Coordinator struct {
	d *dag.Coordinator
}

// NewCoordinator creates a coordinator for an n×n-tile factorization
// on p workers.
func NewCoordinator(n, p int, policy Policy, r *rng.PCG) *Coordinator {
	if n <= 0 || p <= 0 {
		panic("cholesky: invalid coordinator shape")
	}
	if r == nil {
		panic("cholesky: nil rng")
	}
	return &Coordinator{d: dag.NewCoordinator(NewKernel(n), p, policy, r)}
}

// N returns the tile grid dimension.
func (c *Coordinator) N() int { return c.d.N() }

// Total returns the total task count.
func (c *Coordinator) Total() int { return c.d.Total() }

// Done reports whether every task has completed.
func (c *Coordinator) Done() bool { return c.d.Done() }

// Pending reports whether tasks remain (ready, running or future).
func (c *Coordinator) Pending() bool { return c.d.Pending() }

// TryAssign picks a schedulable ready task for worker w according to
// the policy, marks its output tile in flight, performs the transfers,
// and returns the task and the number of blocks shipped. ok is false
// when no ready task is currently schedulable (the worker should wait
// for a completion, or retire if Done).
func (c *Coordinator) TryAssign(w int) (t Task, shipped int, ok bool) {
	dt, shipped, ok := c.d.TryAssign(w)
	if !ok {
		return Task{}, 0, false
	}
	return fromDAG(dt), shipped, true
}

// Complete marks task t (previously assigned to worker w) finished:
// the output tile is rewritten, so only the writer holds its current
// contents, and newly ready tasks enter the ready set.
func (c *Coordinator) Complete(w int, t Task) {
	c.d.Complete(w, toDAG(t))
}
