package dag

import (
	"hetsched/internal/core"
	"hetsched/internal/rng"
)

// EncodeTask packs t into a flat core.Task identifier for an n-tile
// instance: ((kind·n + i)·n + j)·n + k. The indices of a valid task
// are all in [0, n), so the encoding is collision-free.
func EncodeTask(t Task, n int) core.Task {
	n64 := int64(n)
	return core.Task(((int64(t.Kind)*n64+int64(t.I))*n64+int64(t.J))*n64 + int64(t.K))
}

// DecodeTask is the inverse of EncodeTask.
func DecodeTask(ct core.Task, n int) Task {
	v := int64(ct)
	n64 := int64(n)
	k := int(v % n64)
	v /= n64
	j := int(v % n64)
	v /= n64
	i := int(v % n64)
	v /= n64
	return Task{Kind: Kind(v), I: i, J: j, K: k}
}

// Driver adapts a Coordinator to core.Driver so generic hosts — the
// virtual-time simulator (sim.RunDriver), the goroutine runtime
// (internal/exec) and the HTTP service (internal/service) — can drive
// any DAG kernel through the same request/complete protocol as the
// flat kernels. Next hands out one ready task per call; ok=false while
// Remaining() > 0 means the worker must wait for an outstanding
// completion to release new tasks.
type Driver struct {
	coord     *Coordinator
	n, p      int
	completed int
	name      string
}

// NewDriver builds a driver for kernel k on p workers under the given
// ready-task policy.
func NewDriver(k Kernel, p int, policy Policy, r *rng.PCG) *Driver {
	return &Driver{
		coord: NewCoordinator(k, p, policy, r),
		n:     k.N(),
		p:     p,
		name:  k.Name() + policy.String(),
	}
}

// Coordinator returns the coordinator the driver wraps, for callers
// that need kernel-specific inspection.
func (d *Driver) Coordinator() *Coordinator { return d.coord }

// Next implements core.Driver.
func (d *Driver) Next(w int) (core.Assignment, bool) {
	return d.NextInto(w, nil)
}

// NextInto implements core.Driver: the single-task batch is
// appended to buf[:0], so a driving loop that recycles one buffer per
// worker keeps the assignment path allocation-free.
func (d *Driver) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	t, shipped, ok := d.coord.TryAssign(w)
	if !ok {
		return core.Assignment{}, false
	}
	return core.Assignment{Tasks: append(buf[:0], EncodeTask(t, d.n)), Blocks: shipped}, true
}

// Complete implements core.Driver. Tasks must have been assigned to w
// by Next and not completed before; the coordinator panics otherwise,
// so network-facing callers must validate first (service.Host does).
func (d *Driver) Complete(w int, ts []core.Task) {
	for _, ct := range ts {
		d.coord.Complete(w, DecodeTask(ct, d.n))
		d.completed++
	}
}

// Reassign implements core.Driver: each abandoned task re-enters
// the coordinator's ready set with its per-tile write locks released.
// The worker index is unused — the coordinator's per-worker bitsets
// already record what the abandoned worker was shipped, so a
// reassignment to a worker that misses input tiles is charged re-ship
// blocks by TryAssign as usual. Tasks must have been assigned
// by Next and neither completed nor already reassigned; the
// coordinator panics otherwise, so network-facing callers must enforce
// that (service.Host's outstanding table does).
func (d *Driver) Reassign(_ int, ts []core.Task) {
	for _, ct := range ts {
		d.coord.Reassign(DecodeTask(ct, d.n))
	}
}

// TaskCost implements core.TaskCoster: the kernel's relative cost of
// the encoded task, letting cost-aware substrates account DAG tasks as
// more than one elementary block operation.
func (d *Driver) TaskCost(ct core.Task) float64 {
	return d.coord.k.Cost(DecodeTask(ct, d.n))
}

// Remaining implements core.Driver: the number of tasks not yet
// completed.
func (d *Driver) Remaining() int { return d.coord.Total() - d.completed }

// Total implements core.Driver.
func (d *Driver) Total() int { return d.coord.Total() }

// P implements core.Driver.
func (d *Driver) P() int { return d.p }

// Name implements core.Driver.
func (d *Driver) Name() string { return d.name }
