// Package dag is the generic dependency-aware scheduling engine behind
// the paper's §5 future-work direction: demand-driven, data-aware
// allocation of kernels whose tasks form a DAG (tiled Cholesky, LU,
// QR, ...). It factors out everything those kernels share — the ready
// set, what each worker holds of each tile with re-ship accounting, the
// ready-task selection policies, per-tile write serialization and
// completion-driven release. A kernel package adds one Kernel value
// that describes only the workload: what a task costs, which tiles it
// reads and writes, which tasks become ready when it completes and,
// optionally, what it computes (Kernel.Replay runs a schedule of it on
// a real matrix).
//
// The split mirrors core.Scheduler for the flat kernels: a Kernel plus
// the Coordinator is a pure allocation state machine with no notion of
// time or threads, driven by the virtual-time simulator
// (sim.RunDriver), the real goroutine runtime (internal/exec) or the
// scheduler-as-a-service daemon (internal/service) through the
// core.Driver adapter in this package.
package dag

// Kind is a kernel-defined task-type discriminator (POTRF, GETRF,
// GEQRT, ... — the kernel package owns the meaning).
type Kind uint8

// Task is one tile-kernel invocation: a kind plus up to three tile
// indices whose interpretation the kernel owns. K is the elimination
// or panel step, the depth CriticalPathReady minimizes first.
type Task struct {
	Kind    Kind
	I, J, K int
}

// Kernel is one dependency-aware tiled workload: what is known of its
// task graph on an n×n tile grid, and how to start a run through it.
// A run's tiles are the n² slots of the grid, ids in [0, n²).
type Kernel struct {
	// Name prefixes Driver.Name; lower-cased, it prefixes the errors
	// about the kernel's tasks.
	Name string
	// Cost is the relative cost of a task in GEMM-equivalent units.
	Cost func(Task) float64
	// Format names a task, as in "POTRF(3)".
	Format func(Task) string
	// Tasks is the number of tasks on n×n tiles, TotalWork the sum of
	// their costs and CriticalPath the cost of the longest dependency
	// chain.
	Tasks        func(n int) int
	TotalWork    func(n int) float64
	CriticalPath func(n int) float64
	// New returns the progress of a fresh run on n×n tiles.
	New func(n int) Progress
	// Numerics is the kernel's arithmetic on a real matrix; nil for a
	// kernel whose schedules are not replayed.
	Numerics *Numerics
}

// Progress is the DAG progress of one run (Complete mutates it); it
// knows nothing about workers, what they hold, write locks or policies
// — those belong to the Coordinator.
//
// Contract:
//   - Tasks are identified by value; every task is handed out and
//     completed exactly once.
//   - InputTiles must include read-modify-write tiles; OutputTiles
//     lists every tile the task writes (one for Cholesky/LU, two for
//     the coupled QR kernels). A task reads at most three tiles and
//     writes at most two, all in [0, n²): the Coordinator keeps that
//     many ids beside each ready task and panics, naming the kernel, on
//     a task that enters the ready set with more or with an id out of
//     range.
//   - InputTiles and OutputTiles are functions of the task alone: the
//     Coordinator asks once, when the task becomes ready.
//   - Complete must append each newly ready task exactly once, in a
//     deterministic order (the order, together with the policy rng,
//     defines the schedule bit-for-bit).
//   - AppendState and RestoreState carry the progress Complete
//     records, canonically; RestoreState runs on a fresh progress of
//     the same n and never panics, nor does Released on a task of the
//     n-tile task space.
type Progress interface {
	// InputTiles appends the tiles t reads (including read-modify-write
	// outputs) to buf and returns it.
	InputTiles(t Task, buf []int) []int
	// OutputTiles appends the tiles t writes to buf and returns it.
	OutputTiles(t Task, buf []int) []int
	// InitialReady appends the initially ready tasks to ready.
	InitialReady(ready []Task) []Task
	// Complete marks t done and appends newly ready tasks to ready.
	Complete(t Task, ready []Task) []Task
	// AppendState appends the progress to dst.
	AppendState(dst []byte) []byte
	// RestoreState replaces the progress with the one src holds.
	RestoreState(src []byte) error
	// Released reports whether t is a task of the kernel that this
	// progress has released and does not record as completed.
	Released(t Task) bool
}

// Policy selects which schedulable ready task a requesting worker
// gets.
type Policy int

// Ready-task selection policies, shared by every DAG kernel.
const (
	// RandomReady picks a uniformly random schedulable ready task —
	// the dependency analogue of RandomOuter/RandomMatrix.
	RandomReady Policy = iota
	// LocalityReady picks the schedulable ready task that ships the
	// fewest blocks to the requesting worker (ties broken at random) —
	// the dependency analogue of the paper's data-aware strategies.
	LocalityReady
	// CriticalPathReady picks among the schedulable ready tasks with
	// the smallest step K (deepest in the DAG), breaking ties by
	// locality — HEFT-style static priority plus data awareness.
	CriticalPathReady
)

func (p Policy) String() string {
	switch p {
	case RandomReady:
		return "RandomReady"
	case LocalityReady:
		return "LocalityReady"
	case CriticalPathReady:
		return "CriticalPathReady"
	}
	return "?"
}
