// Package dag is the generic dependency-aware scheduling engine behind
// the paper's §5 future-work direction: demand-driven, data-aware
// allocation of kernels whose tasks form a DAG (tiled Cholesky, LU,
// QR, ...). It factors out everything those kernels share — the ready
// set, what each worker holds of each tile with re-ship accounting, the
// ready-task selection policies, per-tile write serialization and
// completion-driven release — behind a Kernel interface that describes
// only the workload: which tiles a task reads and writes, what it
// costs, and which tasks become ready when it completes.
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
// indices whose interpretation the Kernel owns. Kernel packages
// usually define their own Task type with richer methods and convert.
type Task struct {
	Kind    Kind
	I, J, K int
}

// Kernel describes a dependency-aware tiled workload to the generic
// Coordinator. A Kernel instance carries the DAG progress of exactly
// one run (Complete mutates it); it knows nothing about workers,
// what they hold, write locks or policies — those belong to the
// Coordinator.
//
// Contract:
//   - Tasks are identified by value; every task is handed out and
//     completed exactly once.
//   - InputTiles must include read-modify-write tiles; OutputTiles
//     lists every tile the task writes (one for Cholesky/LU, two for
//     the coupled QR kernels). A task reads at most three tiles and
//     writes at most two, all in [0, Tiles()): the Coordinator keeps
//     that many ids beside each ready task and panics, naming the
//     kernel, on a task that enters the ready set with more or with an
//     id out of range.
//   - Depth, InputTiles and OutputTiles are functions of the task
//     alone: the Coordinator asks once, when the task becomes ready.
//   - Complete must append each newly ready task exactly once, in a
//     deterministic order (the order, together with the policy rng,
//     defines the schedule bit-for-bit).
//   - InitialReady seeds the ready set (typically the first diagonal
//     factorization).
//   - AppendState and RestoreState carry the progress Complete
//     records, canonically; RestoreState runs on a freshly built
//     kernel of the same n, never panics, and rejects a ready task
//     that is not one of the kernel's tasks released by that progress,
//     before the Coordinator asks for its tiles.
type Kernel interface {
	// Name is the workload name used as a prefix in Driver.Name.
	Name() string
	// N is the tile-grid dimension.
	N() int
	// Tiles is the number of tile slots (the size of the write-lock
	// and per-worker bitsets; tile ids returned by InputTiles and
	// OutputTiles are in [0, Tiles())).
	Tiles() int
	// Total is the number of tasks of the instance.
	Total() int
	// Cost returns the relative cost of t in GEMM-equivalent units.
	Cost(t Task) float64
	// Depth is the static priority CriticalPathReady minimizes first
	// (the elimination/panel step k for the factorization kernels).
	Depth(t Task) int
	// InputTiles appends the tiles t reads (including read-modify-write
	// outputs) to buf and returns it.
	InputTiles(t Task, buf []int) []int
	// OutputTiles appends the tiles t writes to buf and returns it.
	OutputTiles(t Task, buf []int) []int
	// InitialReady appends the initially ready tasks to ready.
	InitialReady(ready []Task) []Task
	// Complete marks t done and appends newly ready tasks to ready.
	Complete(t Task, ready []Task) []Task
	// AppendState appends the kernel's progress to dst.
	AppendState(dst []byte) []byte
	// RestoreState replaces the progress of a freshly built kernel with
	// the one src holds, and checks that every task of ready is a task
	// of the kernel that this progress has released and does not record
	// as completed.
	RestoreState(src []byte, ready []Task) error
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
	// the smallest Depth (deepest in the DAG), breaking ties by
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
