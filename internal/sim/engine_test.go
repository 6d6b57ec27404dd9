package sim

import (
	"math"
	"reflect"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/outer"
	"hetsched/internal/rng"
	"hetsched/internal/speeds"
)

// stubScheduler hands out `total` single-task assignments, one block
// each, round-robin irrespective of the requesting worker.
type stubScheduler struct {
	total, given, workers int
}

func (s *stubScheduler) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	if s.given >= s.total {
		return core.Assignment{}, false
	}
	t := core.Task(s.given)
	s.given++
	return core.Assignment{Tasks: append(buf[:0], t), Blocks: 1}, true
}
func (s *stubScheduler) Next(w int) (core.Assignment, bool) { return s.NextInto(w, nil) }
func (s *stubScheduler) Remaining() int                     { return s.total - s.given }
func (s *stubScheduler) Total() int                         { return s.total }
func (s *stubScheduler) P() int                             { return s.workers }
func (s *stubScheduler) Name() string                       { return "stub" }

func TestRunProcessesEverything(t *testing.T) {
	sched := &stubScheduler{total: 1000, workers: 4}
	m := Run(sched, speeds.NewFixed([]float64{1, 2, 3, 4}))
	total := 0
	for _, v := range m.TasksPer {
		total += v
	}
	if total != 1000 {
		t.Fatalf("processed %d tasks, want 1000", total)
	}
	if m.Blocks != 1000 {
		t.Fatalf("blocks %d, want 1000", m.Blocks)
	}
	if m.Requests != 1000 {
		t.Fatalf("requests %d, want 1000", m.Requests)
	}
}

func TestFasterProcessorsDoMoreWork(t *testing.T) {
	// With single-task demand-driven assignments, task counts must be
	// nearly proportional to speeds.
	sched := &stubScheduler{total: 10000, workers: 2}
	m := Run(sched, speeds.NewFixed([]float64{10, 30}))
	ratio := float64(m.TasksPer[1]) / float64(m.TasksPer[0])
	if math.Abs(ratio-3) > 0.05 {
		t.Fatalf("task ratio %.3f, want ~3 for a 3x faster processor", ratio)
	}
}

func TestMakespanMatchesWork(t *testing.T) {
	// Two processors of speeds 1 and 3 share 400 unit tasks: the
	// demand-driven makespan must be close to 400/(1+3) = 100.
	sched := &stubScheduler{total: 400, workers: 2}
	m := Run(sched, speeds.NewFixed([]float64{1, 3}))
	if math.Abs(m.Makespan-100) > 2 {
		t.Fatalf("makespan %.2f, want ~100", m.Makespan)
	}
}

func TestImbalanceSmallForManyTasks(t *testing.T) {
	sched := &stubScheduler{total: 50000, workers: 5}
	model := speeds.NewFixed([]float64{10, 20, 30, 40, 50}) // 15x total spread
	m := Run(sched, model)
	if imb := m.Imbalance(model); imb > 0.02 {
		t.Fatalf("imbalance %.4f, want < 2%% with 50k single tasks", imb)
	}
}

func TestPhase1ReportedOnlyForTwoPhase(t *testing.T) {
	sched := &stubScheduler{total: 10, workers: 2}
	m := Run(sched, speeds.NewFixed([]float64{1, 1}))
	if m.Phase1Tasks != -1 {
		t.Fatalf("Phase1Tasks = %d for non-two-phase scheduler, want -1", m.Phase1Tasks)
	}

	two := outer.NewTwoPhases(10, 2, outer.ThresholdFromBeta(3, 10), rng.New(1))
	m2 := Run(two, speeds.NewFixed([]float64{1, 2}))
	if m2.Phase1Tasks < 0 {
		t.Fatal("Phase1Tasks not reported for two-phase scheduler")
	}
}

func TestMismatchedPlatformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched P did not panic")
		}
	}()
	Run(&stubScheduler{total: 1, workers: 3}, speeds.NewFixed([]float64{1, 1}))
}

func TestDeterministicWithDynamicSpeeds(t *testing.T) {
	run := func() int {
		root := rng.New(5)
		init := speeds.UniformRange(6, 80, 120, root.Split())
		model := speeds.NewDrift(init, 0.2, root.Split())
		m := Run(outer.NewDynamic(30, 6, root.Split()), model)
		return m.Blocks
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("dynamic-speed simulation not deterministic: %d vs %d", a, b)
	}
}

func TestEventQueueOrdering(t *testing.T) {
	var q eventHeap[event]
	// Same time → FIFO by sequence; otherwise by time.
	events := []event{
		{t: 2, proc: 0, seq: 0},
		{t: 1, proc: 1, seq: 1},
		{t: 1, proc: 2, seq: 2},
		{t: 0.5, proc: 3, seq: 3},
	}
	for _, e := range events {
		q.push(e)
	}
	want := []int{3, 1, 2, 0} // by time, sequence breaking the tie
	for i, proc := range want {
		if q.len() != len(want)-i {
			t.Fatalf("len %d at pop %d, want %d", q.len(), i, len(want)-i)
		}
		if e := q.pop(); e.proc != proc {
			t.Fatalf("pop %d returned proc %d, want %d", i, e.proc, proc)
		}
	}
	if q.len() != 0 {
		t.Fatalf("len %d after draining, want 0", q.len())
	}
}

// TestEventHeapMatchesSortedOrder drives the hand-rolled heap with a
// mixed push/pop workload and checks every pop returns the minimum of
// the live set — i.e. the heap pops in exactly the total (t, seq)
// order the comparator defines.
func TestEventHeapMatchesSortedOrder(t *testing.T) {
	r := rng.New(42)
	var q eventHeap[event]
	var live []event
	var seq uint64
	for step := 0; step < 5000; step++ {
		if q.len() == 0 || r.Intn(3) > 0 {
			e := event{t: float64(r.Intn(50)), proc: int(seq), seq: seq}
			seq++
			q.push(e)
			live = append(live, e)
			continue
		}
		got := q.pop()
		min := 0
		for i := range live {
			if live[i].before(live[min]) {
				min = i
			}
		}
		if got != live[min] {
			t.Fatalf("step %d: popped %+v, want min %+v", step, got, live[min])
		}
		live[min] = live[len(live)-1]
		live = live[:len(live)-1]
	}
}

// TestProcQueueMatchesScan drives the per-processor queue with random
// interleavings of set (insert and replace), remove and top, times
// drawn from a small range so that ties on t are common, and checks
// every top against a linear scan of the pending events for the
// minimum (t, seq).
func TestProcQueueMatchesScan(t *testing.T) {
	r := rng.New(43)
	for _, p := range []int{1, 3, 64, 100, 129} {
		q := newProcQueue(p)
		pending := make([]event, p)
		for w := range pending {
			pending[w] = event{t: 0, proc: w, seq: uint64(w)}
		}
		seq := uint64(p)
		for step := 0; step < 20*p+200; step++ {
			switch w := r.Intn(p); r.Intn(4) {
			case 0, 1:
				e := event{t: float64(r.Intn(8)), proc: w, seq: seq}
				seq++
				q.set(e)
				pending[w] = e
			case 2:
				q.remove(w)
				pending[w] = noEvent
			}
			want := noEvent
			for _, e := range pending {
				if e.before(want) {
					want = e
				}
			}
			if got := q.top(); got != want {
				t.Fatalf("p=%d step %d: top %+v, scan %+v", p, step, got, want)
			}
		}
	}
}

// TestProcQueueTiesAndBound: events tied at time 0 pop in seq order,
// the initial ones first, and a fleet past the node key's proc field
// is refused before anything is allocated.
func TestProcQueueTiesAndBound(t *testing.T) {
	q := newProcQueue(5)
	q.set(event{t: 0, proc: 3, seq: 9})
	q.set(event{t: 0, proc: 1, seq: 7})
	var got []int
	for e := q.top(); e.proc >= 0; e = q.top() {
		got = append(got, e.proc)
		q.remove(e.proc)
	}
	if want := []int{0, 2, 4, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}

	for _, p := range []int{1 << procBits, 1<<procBits + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newProcQueue(%d) did not panic", p)
				}
			}()
			newProcQueue(p)
		}()
	}
}
