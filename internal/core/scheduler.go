// Package core defines the kernel-agnostic part of the paper's
// contribution: the demand-driven scheduler abstraction shared by the
// outer-product and matrix-multiplication kernels, and the bookkeeping
// structures (index pools, task pools) the data-aware strategies rely
// on.
//
// A Scheduler is a pure allocation state machine: it is driven either
// by the event-based simulator (package sim), which advances virtual
// time, or by the real concurrent runtime (package exec), which runs
// worker goroutines executing actual block arithmetic. Keeping the
// allocation logic free of any notion of time or threads is what lets
// the same strategy implementations serve both substrates.
package core

// Task identifies one elementary block operation. For the outer
// product a task encodes a pair (i, j); for matrix multiplication a
// triple (i, j, k). The encoding is owned by the kernel packages.
type Task int64

// Assignment is the unit of work the master hands to a requesting
// worker: a batch of tasks plus the number of data blocks that had to
// be transferred to the worker to make the batch computable.
type Assignment struct {
	// Tasks to execute, already marked processed by the scheduler.
	Tasks []Task
	// Blocks is the number of data blocks sent to the worker for this
	// assignment (the paper's communication volume contribution).
	Blocks int
}

// Scheduler is the master-side allocation state machine. All methods
// are called from a single goroutine (the master); implementations
// need no internal locking.
type Scheduler interface {
	// NextInto computes the next assignment for worker w in [0, P()),
	// building its Tasks in buf[:0] and growing it when the capacity is
	// insufficient. ok is false when no unprocessed task remains; the
	// returned assignment is then empty. An assignment may contain zero
	// tasks with Blocks > 0: the data-aware strategies sometimes ship
	// fresh blocks whose whole row/column of tasks happens to be already
	// processed — exactly the end-game inefficiency the two-phase
	// variants fix.
	//
	// Ownership: the returned Tasks aliases buf (or its regrown
	// replacement, which the caller should store back for reuse), so it
	// is only valid until the next NextInto call with the same buffer.
	NextInto(w int, buf TaskBuf) (a Assignment, ok bool)
	// Next is NextInto(w, nil): the assignment owns a fresh slice.
	Next(w int) (a Assignment, ok bool)
	// Remaining returns the number of unprocessed tasks.
	Remaining() int
	// Total returns the total number of tasks of the instance.
	Total() int
	// P returns the number of workers.
	P() int
	// Name returns the strategy name as used in the paper's figures.
	Name() string
}

// TaskBuf is a reusable assignment-task buffer. A driver loop keeps one
// TaskBuf per worker and passes it to NextInto on every request, so the
// scheduler appends tasks into recycled capacity instead of allocating
// a fresh slice per assignment. The zero value is ready to use.
type TaskBuf []Task

// PhaseObserver is implemented by two-phase schedulers that want to
// report when they switched strategies; the experiment harness uses it
// to report the fraction of tasks processed in phase 1.
type PhaseObserver interface {
	// Phase1Tasks returns the number of tasks allocated during phase 1
	// (meaningful once the scheduler is drained).
	Phase1Tasks() int
}
