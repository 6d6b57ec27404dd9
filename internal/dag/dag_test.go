package dag

import (
	"fmt"
	"strings"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/rng"
)

// chainKernel is a toy workload over a 1×n tile row: task i reads
// tiles i-1 and i, writes tiles i and i-1 (multi-output), and task i+1
// becomes ready when task i completes. It exercises the engine paths
// the factorization kernels share — multi-output write locks, version
// bumps, re-ship accounting — with trivially checkable numbers.
type chainKernel struct {
	noState
	n    int
	done int
}

// chain is the chain workload on n tiles.
func chain(n int) *Kernel { return testKernel("Chain", n, &chainKernel{n: n}) }

// testKernel is the Kernel of a test progress g with total tasks, each
// costing 1; every run of it is handed g.
func testKernel(name string, total int, g Progress) *Kernel {
	return &Kernel{
		Name:  name,
		Cost:  func(Task) float64 { return 1 },
		Tasks: func(int) int { return total },
		New:   func(int) Progress { return g },
	}
}

// noState gives a test kernel the state methods it never uses.
type noState struct{}

func (noState) AppendState(dst []byte) []byte { return dst }
func (noState) RestoreState([]byte) error {
	return fmt.Errorf("dag: test kernel has no state codec")
}
func (noState) Released(Task) bool { return false }

func (k *chainKernel) InitialReady(r []Task) []Task {
	return append(r, Task{I: 0})
}
func (k *chainKernel) InputTiles(t Task, buf []int) []int {
	if t.I > 0 {
		buf = append(buf, t.I-1)
	}
	return append(buf, t.I)
}
func (k *chainKernel) OutputTiles(t Task, buf []int) []int {
	buf = append(buf, t.I)
	if t.I > 0 {
		buf = append(buf, t.I-1)
	}
	return buf
}
func (k *chainKernel) Complete(t Task, ready []Task) []Task {
	k.done++
	if t.I+1 < k.n {
		ready = append(ready, Task{I: t.I + 1})
	}
	return ready
}

func TestCoordinatorChain(t *testing.T) {
	const n, p = 5, 2
	c := NewCoordinator(chain(n), n, p, LocalityReady, rng.New(1))
	if c.Total() != n || c.Done() {
		t.Fatalf("fresh coordinator: total=%d done=%v", c.Total(), c.Done())
	}
	shippedTotal := 0
	for i := 0; i < n; i++ {
		task, shipped, ok := c.TryAssign(0)
		if !ok || task.I != i {
			t.Fatalf("step %d: got task %+v ok=%v", i, task, ok)
		}
		shippedTotal += shipped
		// The chain is sequential: nothing else is schedulable while
		// the task is in flight.
		if _, _, ok := c.TryAssign(1); ok {
			t.Fatalf("step %d: second assignment while chain task in flight", i)
		}
		c.Complete(0, task)
	}
	if !c.Done() || c.Pending() {
		t.Fatal("coordinator not done after all completions")
	}
	// Worker 0 executes the whole chain: task 0 ships tile 0; task i>0
	// re-ships tile i-1 (its version was bumped by task i's
	// predecessor... it is cached fresh by the writer, so only the
	// never-seen tile i is shipped). Total = n ships.
	if shippedTotal != n {
		t.Fatalf("shipped %d blocks, want %d", shippedTotal, n)
	}
}

func TestMultiOutputWriteLockBlocksSecondWriter(t *testing.T) {
	// Two ready tasks writing an overlapping tile: the second must be
	// unschedulable while the first is in flight.
	c := NewCoordinator(testKernel("Fork", 2, &forkKernel{}), 2, 2, RandomReady, rng.New(1))
	t0, _, ok := c.TryAssign(0)
	if !ok {
		t.Fatal("no initial assignment")
	}
	if _, _, ok := c.TryAssign(1); ok {
		t.Fatal("overlapping writer scheduled while tile in flight")
	}
	c.Complete(0, t0)
	if _, _, ok := c.TryAssign(1); !ok {
		t.Fatal("second writer still blocked after completion")
	}
}

// forkKernel: two tasks, both writing tile 0 (task 1 also tile 1),
// both initially ready.
type forkKernel struct{ noState }

func (k *forkKernel) InitialReady(r []Task) []Task {
	return append(r, Task{I: 0}, Task{I: 1})
}
func (k *forkKernel) InputTiles(t Task, buf []int) []int { return append(buf, 0) }
func (k *forkKernel) OutputTiles(t Task, buf []int) []int {
	buf = append(buf, 0)
	if t.I == 1 {
		buf = append(buf, 1)
	}
	return buf
}
func (k *forkKernel) Complete(t Task, ready []Task) []Task { return ready }

func TestDriverProtocol(t *testing.T) {
	const n, p = 4, 2
	drv := NewDriver(chain(n), n, p, RandomReady, rng.New(2))
	if drv.Name() != "ChainRandomReady" {
		t.Fatalf("driver name %q", drv.Name())
	}
	if drv.Total() != n || drv.Remaining() != n || drv.P() != p {
		t.Fatalf("driver shape: total=%d remaining=%d p=%d", drv.Total(), drv.Remaining(), drv.P())
	}
	var buf core.TaskBuf
	completed := 0
	for drv.Remaining() > 0 {
		a, ok := drv.NextInto(0, buf)
		if !ok {
			t.Fatalf("nothing schedulable with %d remaining and nothing in flight", drv.Remaining())
		}
		buf = a.Tasks
		if len(a.Tasks) != 1 {
			t.Fatalf("DAG driver granted %d tasks", len(a.Tasks))
		}
		if c := drv.TaskCost(a.Tasks[0]); c != 1 {
			t.Fatalf("TaskCost = %g", c)
		}
		// Worker 1 must wait while the chain task is in flight.
		if _, ok := drv.Next(1); ok {
			t.Fatal("second worker served while chain task in flight")
		}
		drv.Complete(0, a.Tasks)
		completed++
	}
	if completed != n {
		t.Fatalf("completed %d tasks, want %d", completed, n)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	const n = 7
	for kind := Kind(0); kind < 4; kind++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					task := Task{Kind: kind, I: i, J: j, K: k}
					if got := DecodeTask(EncodeTask(task, n), n); got != task {
						t.Fatalf("round trip %+v -> %+v", task, got)
					}
				}
			}
		}
	}
}

// shapeKernel is one ready task over four tiles (n = 2) that reads and
// writes whatever the test says: the kernels the Progress contract
// excludes.
type shapeKernel struct {
	noState
	in, out []int
}

func shape(in, out []int) *Kernel { return testKernel("Shape", 1, &shapeKernel{in: in, out: out}) }

func (k *shapeKernel) InitialReady(r []Task) []Task         { return append(r, Task{}) }
func (k *shapeKernel) InputTiles(t Task, buf []int) []int   { return append(buf, k.in...) }
func (k *shapeKernel) OutputTiles(t Task, buf []int) []int  { return append(buf, k.out...) }
func (k *shapeKernel) Complete(t Task, ready []Task) []Task { return ready }

func TestCoordinatorValidation(t *testing.T) {
	for name, c := range map[string]struct {
		want string // in the panic's message
		fn   func()
	}{
		"nil kernel": {"", func() { NewCoordinator(nil, 2, 2, RandomReady, rng.New(1)) }},
		"p=0":        {"", func() { NewCoordinator(chain(2), 2, 0, RandomReady, rng.New(1)) }},
		"nil rng":    {"", func() { NewCoordinator(chain(2), 2, 2, RandomReady, nil) }},
		"double complete": {"", func() {
			c := NewCoordinator(chain(2), 2, 1, RandomReady, rng.New(1))
			task, _, _ := c.TryAssign(0)
			c.Complete(0, task)
			c.Complete(0, task)
		}},
		// At construction, not at the first schedulable candidate of
		// some later poll (never, with an empty ready set).
		"unknown policy": {"unknown policy", func() { NewCoordinator(testKernel("Empty", 0, &emptyKernel{}), 1, 2, Policy(3), rng.New(1)) }},
		"four inputs": {"Shape task {Kind:0 I:0 J:0 K:0} has 4 input tiles", func() {
			NewCoordinator(shape([]int{0, 1, 2, 3}, []int{0}), 2, 2, LocalityReady, rng.New(1))
		}},
		"three outputs": {"Shape task {Kind:0 I:0 J:0 K:0} has 3 output tiles", func() {
			NewCoordinator(shape([]int{0}, []int{0, 1, 2}), 2, 2, LocalityReady, rng.New(1))
		}},
		"tile id = n²": {"Shape task {Kind:0 I:0 J:0 K:0} has input tile 4 outside [0, 4)", func() {
			NewCoordinator(shape([]int{0, 4}, []int{0}), 2, 2, LocalityReady, rng.New(1))
		}},
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if msg == "<nil>" || !strings.Contains(msg, c.want) {
					t.Fatalf("%s: panic %q, want one with %q", name, msg, c.want)
				}
			}()
			c.fn()
		}()
	}
}

// TestCoordinatorReassign exercises lease-style reclamation at the
// coordinator level: an assigned-but-abandoned task re-enters the
// ready set with its write locks released, and its reassignment to a
// worker without the input tile versions charges re-ship blocks.
func TestCoordinatorReassign(t *testing.T) {
	const n, p = 3, 2
	c := NewCoordinator(chain(n), n, p, LocalityReady, rng.New(1))

	// Worker 0 takes task 0 (ships tile 0), then dies.
	task, shipped, ok := c.TryAssign(0)
	if !ok || task.I != 0 || shipped != 1 {
		t.Fatalf("TryAssign(0) = %+v, %d, %v", task, shipped, ok)
	}
	// While the task is in flight nothing is schedulable...
	if _, _, ok := c.TryAssign(1); ok {
		t.Fatal("second assignment while chain task in flight")
	}
	c.Reassign(task)
	// ...but the reclaim releases the write lock: worker 1 wins the
	// task and is charged the ship of tile 0, which it never held (the
	// dead worker's cached copy is irrelevant — tile versions did not
	// move, so re-assigning back to worker 0 would ship nothing).
	got, reshipped, ok := c.TryAssign(1)
	if !ok || got != task {
		t.Fatalf("reassigned TryAssign(1) = %+v, %v, want %+v", got, ok, task)
	}
	if reshipped != 1 {
		t.Fatalf("re-ship charged %d blocks to the new owner, want 1", reshipped)
	}
	c.Complete(1, got)
	if c.Completed() != 1 {
		t.Fatalf("completed = %d after reassigned completion", c.Completed())
	}

	// The chain continues under the new owner: exactly-once semantics
	// survive the reclaim.
	for i := 1; i < n; i++ {
		task, _, ok := c.TryAssign(1)
		if !ok || task.I != i {
			t.Fatalf("step %d after reassign: got %+v ok=%v", i, task, ok)
		}
		c.Complete(1, task)
	}
	if !c.Done() {
		t.Fatal("coordinator not done after reassigned run drained")
	}
}

// TestCoordinatorReassignSameWorkerShipsNothing pins the cache
// interaction: tile versions do not move on a reclaim, so the
// abandoned worker winning its own task back re-ships zero blocks.
func TestCoordinatorReassignSameWorkerShipsNothing(t *testing.T) {
	c := NewCoordinator(chain(2), 2, 1, LocalityReady, rng.New(1))
	task, shipped, _ := c.TryAssign(0)
	if shipped != 1 {
		t.Fatalf("initial ship = %d, want 1", shipped)
	}
	c.Reassign(task)
	got, reshipped, ok := c.TryAssign(0)
	if !ok || got != task || reshipped != 0 {
		t.Fatalf("same-worker reassignment = %+v, %d, %v; want %+v, 0, true", got, reshipped, ok, task)
	}
}

// TestCoordinatorReassignValidation: reassigning a task whose outputs
// are not in flight (never assigned, or already completed) panics like
// any other protocol violation — network-facing callers must validate.
func TestCoordinatorReassignValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"never assigned": func() {
			c := NewCoordinator(chain(2), 2, 1, RandomReady, rng.New(1))
			c.Reassign(Task{I: 0})
		},
		"already completed": func() {
			c := NewCoordinator(chain(2), 2, 1, RandomReady, rng.New(1))
			task, _, _ := c.TryAssign(0)
			c.Complete(0, task)
			c.Reassign(task)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestDriverReassign drives Reassign through the encoded-task Driver
// interface, as the service host does.
func TestDriverReassign(t *testing.T) {
	const n, p = 4, 2
	drv := NewDriver(chain(n), n, p, LocalityReady, rng.New(3))

	a, ok := drv.Next(0)
	if !ok || len(a.Tasks) != 1 {
		t.Fatalf("Next = %+v, %v", a, ok)
	}
	before := drv.Remaining()
	drv.Reassign(0, a.Tasks)
	if drv.Remaining() != before {
		t.Fatalf("Remaining moved %d -> %d on reassign (tasks are not completed by dying)", before, drv.Remaining())
	}
	b, ok := drv.Next(1)
	if !ok || len(b.Tasks) != 1 || b.Tasks[0] != a.Tasks[0] {
		t.Fatalf("reassigned Next(1) = %+v, %v; want task %d", b, ok, a.Tasks[0])
	}
	if b.Blocks == 0 {
		t.Fatal("reassignment to a cold worker shipped no blocks")
	}
	drv.Complete(1, b.Tasks)
	if drv.Remaining() != n-1 {
		t.Fatalf("Remaining = %d after reassigned completion, want %d", drv.Remaining(), n-1)
	}
}
