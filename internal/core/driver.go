package core

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Driver generalizes Scheduler to kernels whose allocation state
// advances on completions as well as on requests. The flat kernels
// (outer product, matrix multiplication) commit a task at assignment
// time and never need to hear back; the DAG kernels (Cholesky, LU)
// release dependent tasks only when a completion is reported. Network
// hosts such as internal/service drive a Driver so both families speak
// the same request/complete protocol.
//
// Like Scheduler, a Driver is a single-goroutine state machine: the
// caller serializes access (the service wraps it in a mutex-guarded
// Host, the simulator runs in one goroutine anyway).
type Driver interface {
	// NextInto computes the next assignment for worker w in [0, P()),
	// building its Tasks in buf[:0] under Scheduler.NextInto's
	// ownership rule. ok=false with Remaining() > 0 means "nothing
	// schedulable right now": the worker should retry after some
	// completion is reported (DAG kernels only). ok=false with
	// Remaining() == 0 means the run is drained and the worker can
	// retire.
	NextInto(w int, buf TaskBuf) (a Assignment, ok bool)
	// Next is NextInto(w, nil): the assignment owns a fresh slice.
	Next(w int) (a Assignment, ok bool)
	// Complete reports that worker w finished executing ts. Flat
	// schedulers ignore it; DAG drivers use it to bump tile versions
	// and move newly ready tasks into the ready set. Every task must
	// have been previously assigned to w by Next.
	Complete(w int, ts []Task)
	// Reassign returns tasks that were granted to worker w but will
	// never be completed by it (the worker is presumed dead: its lease
	// expired) to the schedulable pool, so later calls to Next can hand
	// them to surviving workers. Every task must have been granted to w
	// and neither completed nor already reassigned; the driver serves
	// it again exactly once.
	Reassign(w int, ts []Task)
	// Remaining returns the number of tasks not yet retired: not yet
	// allocated for flat kernels, not yet completed for DAG kernels.
	Remaining() int
	// Total returns the total number of tasks of the instance.
	Total() int
	// P returns the number of workers.
	P() int
	// Name returns the strategy name as used in the paper's figures.
	Name() string
}

// TaskCoster is implemented by drivers whose tasks have heterogeneous
// relative costs (the DAG kernels: a trailing update costs more than a
// panel solve). Substrates that account virtual time treat a task
// without a TaskCoster as one elementary block operation (cost 1).
type TaskCoster interface {
	// TaskCost returns the relative cost of t in elementary block-task
	// units (always > 0).
	TaskCost(t Task) float64
}

// SchedulerDriver adapts a plain Scheduler to the Driver interface:
// completions are no-ops because flat schedulers mark tasks processed
// at assignment time. Reassigned tasks go into a host-level requeue
// that Next serves before stepping the wrapped scheduler: the flat
// schedulers have no notion of un-processing a task, so the requeue
// preserves exactly-once allocation without touching their internal
// data-placement state. A requeued task carries no block cost — the
// original grant already charged the shipment, and the flat
// schedulers' ownership bookkeeping cannot be replayed for the new
// worker (the DAG kernels, which track per-worker tile versions, do
// re-charge; see dag.Driver.Reassign).
type SchedulerDriver struct {
	s       Scheduler
	requeue []Task
}

// NewSchedulerDriver wraps s. The wrapper owns no state of its own, so
// the usual single-goroutine rule applies to the pair as a whole.
func NewSchedulerDriver(s Scheduler) *SchedulerDriver {
	if s == nil {
		panic("core: nil scheduler")
	}
	return &SchedulerDriver{s: s}
}

// popRequeue serves the oldest reclaimed task, if any. One task per
// allocation step mirrors the granularity of the flat schedulers'
// cheapest strategies, so the master's batch target stays in control
// of assignment sizes.
func (d *SchedulerDriver) popRequeue(buf TaskBuf) (Assignment, bool) {
	if len(d.requeue) == 0 {
		return Assignment{}, false
	}
	t := d.requeue[0]
	d.requeue = d.requeue[1:]
	if len(d.requeue) == 0 {
		d.requeue = nil // release the drained backing array
	}
	return Assignment{Tasks: append(buf[:0], t)}, true
}

// Next implements Driver.
func (d *SchedulerDriver) Next(w int) (Assignment, bool) { return d.NextInto(w, nil) }

// NextInto implements Driver, serving reclaimed tasks before stepping
// the wrapped scheduler.
func (d *SchedulerDriver) NextInto(w int, buf TaskBuf) (Assignment, bool) {
	if a, ok := d.popRequeue(buf); ok {
		return a, true
	}
	return d.s.NextInto(w, buf)
}

// Complete implements Driver as a no-op.
func (d *SchedulerDriver) Complete(int, []Task) {}

// Reassign implements Driver: the abandoned tasks enter the
// requeue, which Next drains (oldest first) before stepping the
// scheduler.
func (d *SchedulerDriver) Reassign(_ int, ts []Task) {
	d.requeue = append(d.requeue, ts...)
}

// errNoState reports a wrapped scheduler that cannot be snapshotted.
var errNoState = errors.New("core: scheduler has no state codec")

// AppendState implements Snapshotter: the requeue, oldest first, then
// the wrapped scheduler's state. It panics when the scheduler is not a
// Snapshotter; every scheduler a service host journals is one.
func (d *SchedulerDriver) AppendState(dst []byte) []byte {
	sn, ok := d.s.(Snapshotter)
	if !ok {
		panic(fmt.Sprintf("%v: %s", errNoState, d.s.Name()))
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.requeue)))
	for _, t := range d.requeue {
		dst = binary.AppendUvarint(dst, uint64(t))
	}
	return sn.AppendState(dst)
}

// RestoreState implements Snapshotter. A requeued task is a task of the
// instance, and is requeued once.
func (d *SchedulerDriver) RestoreState(src []byte) error {
	sn, ok := d.s.(Snapshotter)
	if !ok {
		return fmt.Errorf("%w: %s", errNoState, d.s.Name())
	}
	r := NewStateReader(src)
	total := d.s.Total()
	n := r.Int(total, "requeue length")
	d.requeue = nil
	if n > 0 {
		seen := make([]bool, total)
		for i := 0; i < n && r.Ok(); i++ {
			t := r.Int(total-1, "requeued task")
			if r.Ok() && seen[t] {
				r.Failf("core: task %d requeued twice", t)
			}
			seen[t] = true
			d.requeue = append(d.requeue, Task(t))
		}
	}
	if !r.Ok() {
		return r.Done()
	}
	return sn.RestoreState(r.Rest())
}

// Remaining implements Driver: unprocessed tasks plus reclaimed tasks
// awaiting reassignment, so a run with an empty scheduler but a
// non-empty requeue is not mistaken for drained.
func (d *SchedulerDriver) Remaining() int { return d.s.Remaining() + len(d.requeue) }

// Total implements Driver.
func (d *SchedulerDriver) Total() int { return d.s.Total() }

// P implements Driver.
func (d *SchedulerDriver) P() int { return d.s.P() }

// Name implements Driver.
func (d *SchedulerDriver) Name() string { return d.s.Name() }

// Phase1Tasks implements PhaseObserver by delegating to the wrapped
// scheduler, returning -1 when it is not two-phase (the same sentinel
// sim.Metrics uses).
func (d *SchedulerDriver) Phase1Tasks() int {
	if po, ok := d.s.(PhaseObserver); ok {
		return po.Phase1Tasks()
	}
	return -1
}

// Unwrap returns the wrapped scheduler, for callers that need
// kernel-specific inspection (e.g. the mean-field sampling hooks).
func (d *SchedulerDriver) Unwrap() Scheduler { return d.s }
