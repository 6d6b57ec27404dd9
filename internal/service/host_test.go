package service

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hetsched/internal/cholesky"
	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/durable"
	"hetsched/internal/flat"
	"hetsched/internal/outer"
	"hetsched/internal/rng"
)

// hammer drains h with one goroutine per worker, each following the
// poll → execute → report protocol, and returns the multiset of tasks
// each worker was assigned.
func hammer(t *testing.T, h *Host) [][]core.Task {
	t.Helper()
	p := h.p
	got := make([][]core.Task, p)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var completed []core.Task
			for {
				a, status, err := h.Next(w, completed)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				completed = nil
				switch status {
				case StatusDone:
					return
				case StatusWait:
					time.Sleep(50 * time.Microsecond)
				case StatusOK:
					got[w] = append(got[w], a.Tasks...)
					completed = a.Tasks
				}
			}
		}(w)
	}
	wg.Wait()
	return got
}

// checkCoverage asserts that the per-worker assignments cover exactly
// total distinct task encodings, each exactly once.
func checkCoverage(t *testing.T, got [][]core.Task, total int, decode func(core.Task) int) {
	t.Helper()
	seen := make(map[int]int)
	count := 0
	for _, tasks := range got {
		for _, task := range tasks {
			seen[decode(task)]++
			count++
		}
	}
	if count != total {
		t.Fatalf("assigned %d tasks, want %d", count, total)
	}
	for id, times := range seen {
		if times != 1 {
			t.Fatalf("task %d assigned %d times", id, times)
		}
	}
}

func TestHostConcurrentDrainOuter(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		host func(t *testing.T) *Host
	}{
		{"p10-batch3", 30, func(t *testing.T) *Host {
			return NewHost(core.NewSchedulerDriver(flat.NewTwoPhasesAuto(outer.Kernel, 30, 10, rng.New(11).Split())), 3, 0)
		}},
		// The poll benchmark's host with an event stream and a journal
		// attached: 64 goroutines on one Host through every hook a
		// served poll runs, which is what the race detector is for.
		{"p64-batch4-events-journal", 128, func(t *testing.T) *Host {
			jr, err := durable.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { jr.Close() })
			return pollHost(t, 11, 0, true, jr)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, h := tc.n, tc.host(t)
			got := hammer(t, h)
			checkCoverage(t, got, n*n, func(task core.Task) int { return int(task) })

			st := h.Stats()
			if st.Remaining != 0 || st.Outstanding != 0 {
				t.Errorf("remaining=%d outstanding=%d after drain", st.Remaining, st.Outstanding)
			}
			if st.Assigned != n*n || st.Completed != n*n {
				t.Errorf("assigned=%d completed=%d, want %d", st.Assigned, st.Completed, n*n)
			}
			if st.Assigned != st.Completed+st.Reclaimed {
				t.Errorf("assigned=%d != completed=%d + reclaimed=%d", st.Assigned, st.Completed, st.Reclaimed)
			}
			if st.State != StateComplete {
				t.Errorf("state = %q, want %q", st.State, StateComplete)
			}
			if st.Blocks <= 0 {
				t.Errorf("blocks = %d, want > 0", st.Blocks)
			}
			if st.Phase1Tasks < 0 {
				t.Errorf("phase1 = %d for a two-phase run", st.Phase1Tasks)
			}
			wt := 0
			for _, ws := range st.Workers {
				wt += ws.Tasks
			}
			if wt != n*n {
				t.Errorf("per-worker task sum = %d, want %d", wt, n*n)
			}
			tr := h.Trace()
			if len(tr.Segments) == 0 || tr.P != len(got) {
				t.Errorf("trace has %d segments over %d procs", len(tr.Segments), tr.P)
			}
		})
	}
}

func TestHostConcurrentDrainCholesky(t *testing.T) {
	const n, p = 10, 5
	drv := dag.NewDriver(cholesky.Kernel, n, p, dag.LocalityReady, rng.New(5).Split())
	h := NewHost(drv, 2, 0)
	got := hammer(t, h)
	total := cholesky.Kernel.Tasks(n)
	seen := make(map[core.Task]bool)
	count := 0
	for _, tasks := range got {
		for _, task := range tasks {
			if seen[task] {
				t.Fatalf("task %v assigned twice", dag.DecodeTask(task, n))
			}
			seen[task] = true
			count++
		}
	}
	if count != total {
		t.Fatalf("assigned %d tasks, want %d", count, total)
	}
	st := h.Stats()
	if st.State != StateComplete || st.Remaining != 0 {
		t.Errorf("state=%q remaining=%d after drain", st.State, st.Remaining)
	}
	if st.Phase1Tasks != -1 {
		t.Errorf("phase1 = %d for a non-two-phase run", st.Phase1Tasks)
	}
}

func TestHostBatchingKnob(t *testing.T) {
	// RandomOuter serves exactly one task per allocation step, so the
	// batch size fully determines the assignment size until the pool
	// drains: requests shrink by ~batch.
	const n, p = 16, 1
	requests := func(batch int) int {
		drv := core.NewSchedulerDriver(flat.NewRandom(outer.Kernel, n, p, rng.New(3).Split()))
		h := NewHost(drv, batch, 0)
		reqs := 0
		var completed []core.Task
		for {
			a, status, err := h.Next(0, completed)
			if err != nil {
				t.Fatal(err)
			}
			completed = a.Tasks
			if status == StatusDone {
				return reqs
			}
			if status == StatusOK {
				reqs++
				if len(a.Tasks) > batch {
					t.Fatalf("batch %d overshot: %d tasks in one assignment", batch, len(a.Tasks))
				}
			}
		}
	}
	r1, r8 := requests(1), requests(8)
	if r1 != n*n {
		t.Errorf("batch=1 took %d requests, want %d", r1, n*n)
	}
	if want := n * n / 8; r8 != want {
		t.Errorf("batch=8 took %d requests, want %d", r8, want)
	}
}

func TestHostRejectsMalformedRequests(t *testing.T) {
	drv := core.NewSchedulerDriver(flat.NewRandom(outer.Kernel, 4, 2, rng.New(1).Split()))
	h := NewHost(drv, 1, 0)

	if _, _, err := h.Next(2, nil); err == nil {
		t.Error("out-of-range worker accepted")
	}
	if _, _, err := h.Next(-1, nil); err == nil {
		t.Error("negative worker accepted")
	}
	// Completing a task that was never assigned must fail...
	if _, _, err := h.Next(0, []core.Task{99}); err == nil {
		t.Error("completion of unassigned task accepted")
	}
	a, status, err := h.Next(0, nil)
	if err != nil || status != StatusOK || len(a.Tasks) != 1 {
		t.Fatalf("Next = %v/%v/%v", a, status, err)
	}
	// ...as must completing it from the wrong worker,
	if _, _, err := h.Next(1, a.Tasks); err == nil {
		t.Error("completion from wrong worker accepted")
	}
	// ...while the rightful owner still can (the failed attempt must
	// not have consumed it).
	if _, _, err := h.Next(0, a.Tasks); err != nil {
		t.Errorf("rightful completion rejected: %v", err)
	}
	// Double completion is rejected.
	if _, _, err := h.Next(0, a.Tasks); err == nil {
		t.Error("double completion accepted")
	}
}

// TestHostRejectsDuplicateInOneReport guards the DAG coordinators: a
// completion report listing the same task twice would pass a naive
// per-element check, then panic the coordinator on the second apply
// and wedge the run with the mutex-protected state half-updated.
func TestHostRejectsDuplicateInOneReport(t *testing.T) {
	drv := dag.NewDriver(cholesky.Kernel, 4, 2, dag.LocalityReady, rng.New(1).Split())
	h := NewHost(drv, 1, 0)
	a, status, err := h.Next(0, nil)
	if err != nil || status != StatusOK || len(a.Tasks) != 1 {
		t.Fatalf("Next = %v/%v/%v", a, status, err)
	}
	dup := []core.Task{a.Tasks[0], a.Tasks[0]}
	if _, _, err := h.Next(0, dup); err == nil {
		t.Fatal("duplicate completion within one report accepted")
	}
	// The rejection must be atomic: the honest single report still
	// works afterwards.
	if _, _, err := h.Next(0, a.Tasks); err != nil {
		t.Fatalf("honest completion rejected after failed duplicate report: %v", err)
	}
}

// TestHostRejectsDuplicateInReport: a report naming a task twice is
// rejected whole, at every size the fused validate-and-apply loop sees,
// wherever the duplicate sits and whether or not the task is still
// owned. Worker 0 holds two batches and has completed a third; each row
// must draw an error, apply nothing, and leave the honest report of
// both held batches acceptable afterwards.
func TestHostRejectsDuplicateInReport(t *testing.T) {
	const batch = 32
	cases := []struct {
		name   string
		report func(held, stale []core.Task, k int) []core.Task
	}{
		{"owned duplicate", func(held, _ []core.Task, k int) []core.Task {
			return append([]core.Task{held[0], held[0]}, held[1:k-1]...)
		}},
		{"stale duplicate", func(held, stale []core.Task, k int) []core.Task {
			return append([]core.Task{stale[0], stale[0]}, held[:k-2]...)
		}},
		{"duplicate after a valid prefix", func(held, _ []core.Task, k int) []core.Task {
			return append(append([]core.Task(nil), held[:k-1]...), held[0])
		}},
	}
	for _, k := range []int{2, 16, 17, 2 * batch} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/k=%d", c.name, k), func(t *testing.T) {
				h := NewHost(core.NewSchedulerDriver(flat.NewRandom(outer.Kernel, 16, 2, rng.New(1).Split())), batch, 0)
				stale, _ := mustNext(t, h, 0, nil)
				stale.Tasks = append([]core.Task(nil), stale.Tasks...)
				first, _ := mustNext(t, h, 0, stale.Tasks)
				held := append([]core.Task(nil), first.Tasks...)
				second, _ := mustNext(t, h, 0, nil)
				held = append(held, second.Tasks...)
				if len(held) != 2*batch {
					t.Fatalf("worker 0 holds %d tasks, want %d", len(held), 2*batch)
				}
				before := h.Stats()
				if _, _, err := h.Next(0, c.report(held, stale.Tasks, k)); err == nil {
					t.Fatal("report with a duplicate accepted")
				}
				if after := h.Stats(); after.Completed != before.Completed || after.Outstanding != before.Outstanding ||
					after.Polls != before.Polls {
					t.Fatalf("rejected report applied: completed %d→%d, outstanding %d→%d, polls %d→%d",
						before.Completed, after.Completed, before.Outstanding, after.Outstanding, before.Polls, after.Polls)
				}
				if _, _, err := h.Next(0, held); err != nil {
					t.Fatalf("honest report rejected after the duplicate: %v", err)
				}
				if got := h.Stats().Completed; got != before.Completed+2*batch {
					t.Fatalf("completed %d after the honest report, want %d", got, before.Completed+2*batch)
				}
			})
		}
	}
}

// TestHostRejections pins every way Host.Next refuses a report, at
// p=130: the error each draws, word for word (and the type, for the
// 409), and that a refused report leaves Stats exactly as it was.
// Worker 2's batch expired and was reclaimed before the table runs, so
// it is stained for those tasks; worker 0 holds a fresh batch.
func TestHostRejections(t *testing.T) {
	const n, p, batch = 24, 130, 2
	const lease = 10 * time.Second
	h, clock := newLeaseHost(t, core.NewSchedulerDriver(flat.NewRandom(outer.Kernel, n, p, rng.New(1).Split())), batch, lease)
	lost, _ := mustNext(t, h, 2, nil)
	lost.Tasks = append([]core.Task(nil), lost.Tasks...)
	clock.Advance(lease + time.Second)
	if got := h.ReclaimExpired(); got != batch {
		t.Fatalf("reclaimed %d tasks, want %d", got, batch)
	}
	held, _ := mustNext(t, h, 0, nil)
	held.Tasks = append([]core.Task(nil), held.Tasks...)
	granted := map[core.Task]bool{}
	for _, task := range append(lost.Tasks, held.Tasks...) {
		granted[task] = true
	}
	never := core.Task(0)
	for granted[never] {
		never++
	}
	a, stained := held.Tasks[0], lost.Tasks[0]

	cases := []struct {
		name    string
		worker  int
		report  []core.Task
		want    string
		expired bool // a *LeaseExpiredError, which the server answers 409
	}{
		{"worker past the end", p, nil, "worker 130 out of range [0, 130)", false},
		{"negative worker", -1, nil, "worker -1 out of range [0, 130)", false},
		{"never assigned", 0, []core.Task{never}, fmt.Sprintf("task %d is not outstanding", never), false},
		{"valid prefix, then never assigned", 0, []core.Task{a, never}, fmt.Sprintf("task %d is not outstanding", never), false},
		{"held by w+64", 64, []core.Task{a}, fmt.Sprintf("task %d is outstanding for worker 0, not 64", a), false},
		{"held by w+1", 1, []core.Task{a}, fmt.Sprintf("task %d is outstanding for worker 0, not 1", a), false},
		{"duplicate in one report", 0, []core.Task{a, a}, fmt.Sprintf("task %d reported complete twice in one request", a), false},
		{"lease expired", 2, []core.Task{stained}, fmt.Sprintf("lease expired: task %d was reclaimed from the reporting worker", stained), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := h.Stats()
			_, _, err := h.Next(c.worker, c.report)
			if err == nil || err.Error() != c.want {
				t.Fatalf("Next(%d, %v) = %v, want %q", c.worker, c.report, err, c.want)
			}
			var lerr *LeaseExpiredError
			if got := errors.As(err, &lerr); got != c.expired {
				t.Errorf("error %T is a LeaseExpiredError: %v, want %v", err, got, c.expired)
			}
			if after := h.Stats(); !reflect.DeepEqual(after, before) {
				t.Errorf("rejected report changed Stats:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}
	if _, _, err := h.Next(0, held.Tasks); err != nil {
		t.Fatalf("honest report rejected after the refusals: %v", err)
	}
}
