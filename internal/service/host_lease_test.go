package service

import (
	"errors"
	"sync"
	"testing"
	"time"

	"hetsched/internal/cholesky"
	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/flat"
	"hetsched/internal/outer"
	"hetsched/internal/rng"
)

// fakeClock is the injectable time source for lease tests: expiry is
// driven by explicit Advance calls, never by the wall clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1<<20, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newLeaseHost builds a Host on an injected clock: the fake epoch is
// the host's epoch, so trace timestamps and leases are fully virtual.
func newLeaseHost(t *testing.T, drv core.Driver, batch int, lease time.Duration) (*Host, *fakeClock) {
	t.Helper()
	c := newFakeClock()
	return NewHostWithClock(drv, batch, lease, c.Now), c
}

func mustNext(t *testing.T, h *Host, w int, completed []core.Task) (core.Assignment, string) {
	t.Helper()
	a, status, err := h.Next(w, completed)
	if err != nil {
		t.Fatalf("worker %d: %v", w, err)
	}
	return a, status
}

// TestLeaseExpiryMidRunDAG is the wedge scenario from the issue: the
// worker holding the root factorization task dies, every other worker
// draws wait forever — until its lease expires and an ordinary poll
// reclaims the task and hands it to a survivor.
func TestLeaseExpiryMidRunDAG(t *testing.T) {
	const n, p = 4, 3
	const lease = 30 * time.Second
	drv := dag.NewDriver(cholesky.Kernel, n, p, dag.LocalityReady, rng.New(7).Split())
	h, clock := newLeaseHost(t, drv, 1, lease)

	// Worker 0 takes POTRF(0) — the only initially ready task — and
	// dies without reporting.
	a0, status := mustNext(t, h, 0, nil)
	if status != StatusOK || len(a0.Tasks) != 1 {
		t.Fatalf("first grant = %v/%s", a0, status)
	}
	// Survivors wedge in wait; their polls keep the run's lastPoll
	// fresh, which is exactly why the TTL sweep alone can never save
	// this run.
	for i := 0; i < 3; i++ {
		if _, status := mustNext(t, h, 1, nil); status != StatusWait {
			t.Fatalf("survivor poll %d = %s, want wait", i, status)
		}
		clock.Advance(lease / 10)
	}

	// Past the lease deadline, the next survivor poll reclaims and is
	// immediately served the reclaimed task.
	clock.Advance(lease)
	a1, status := mustNext(t, h, 1, nil)
	if status != StatusOK || len(a1.Tasks) != 1 || a1.Tasks[0] != a0.Tasks[0] {
		t.Fatalf("post-expiry poll = %v/%s, want reclaimed task %d", a1, status, a0.Tasks[0])
	}
	st := h.Stats()
	if st.Reclaimed != 1 || st.Workers[0].Reclaimed != 1 {
		t.Fatalf("reclaimed = %d (worker 0: %d), want 1/1", st.Reclaimed, st.Workers[0].Reclaimed)
	}
	if st.State != StateDraining {
		t.Fatalf("state = %s mid-run", st.State)
	}

	// The dead worker's open trace segment was closed at reclaim time.
	tr := h.Trace()
	if got := tr.Segments[0]; got.End <= got.Start {
		t.Fatalf("reclaimed segment not closed: %+v", got)
	}

	// Drain the rest from the survivors; the run completes with
	// exactly-once task accounting despite the loss.
	pending := map[int][]core.Task{1: a1.Tasks}
	seen := map[core.Task]int{}
	for done := 0; done < 2; {
		done = 0
		for w := 1; w < p; w++ {
			a, status := mustNext(t, h, w, pending[w])
			for _, task := range pending[w] {
				seen[task]++
			}
			pending[w] = a.Tasks
			if status == StatusDone {
				done++
			}
		}
	}
	if total := cholesky.Kernel.Tasks(n); len(seen) != total {
		t.Fatalf("completed %d distinct tasks, want %d", len(seen), total)
	}
	for task, times := range seen {
		if times != 1 {
			t.Fatalf("task %d completed %d times", task, times)
		}
	}
	if st := h.Stats(); st.State != StateComplete || st.Outstanding != 0 || st.Remaining != 0 {
		t.Fatalf("final stats: %+v", st)
	}
}

// TestLeaseLateCompletionRejected409 pins the deterministic answer to
// a completion report that arrives after the lease ran out: the task
// was reclaimed from the reporter, so the report draws
// LeaseExpiredError (HTTP 409) — whether or not the task has already
// been reassigned or even completed by its new owner
// (first-reassignment-wins).
func TestLeaseLateCompletionRejected409(t *testing.T) {
	const lease = 10 * time.Second
	drv := core.NewSchedulerDriver(flat.NewRandom(outer.Kernel, 4, 3, rng.New(2).Split()))
	h, clock := newLeaseHost(t, drv, 2, lease)

	a0, _ := mustNext(t, h, 0, nil)
	clock.Advance(lease + time.Second)

	// Late report before any reassignment: the poll-path reclaim runs
	// first, so the verdict is already 409, not "accepted because
	// nobody noticed yet".
	_, _, err := h.Next(0, a0.Tasks)
	var lerr *LeaseExpiredError
	if !errors.As(err, &lerr) {
		t.Fatalf("late completion error = %v, want LeaseExpiredError", err)
	}
	if lerr.Task != a0.Tasks[0] {
		t.Fatalf("LeaseExpiredError names task %d, want %d", lerr.Task, a0.Tasks[0])
	}

	// Reassign to worker 1, have it complete, then late-report again:
	// still 409, and the new owner's completion stands.
	a1, _ := mustNext(t, h, 1, nil)
	if a1.Tasks[0] != a0.Tasks[0] && a1.Tasks[1] != a0.Tasks[0] {
		t.Fatalf("reclaimed tasks %v not reassigned first (got %v)", a0.Tasks, a1.Tasks)
	}
	if _, _, err := h.Next(1, a1.Tasks); err != nil {
		t.Fatalf("new owner's completion rejected: %v", err)
	}
	if _, _, err := h.Next(0, a0.Tasks[:1]); !errors.As(err, &lerr) {
		t.Fatalf("late completion after rival completion = %v, want LeaseExpiredError", err)
	}
	// The failed reports consumed nothing: worker 0 keeps polling and
	// working as a healthy (if slow) worker.
	if _, status := mustNext(t, h, 0, nil); status != StatusOK {
		t.Fatalf("slow worker's clean poll = %s, want ok", status)
	}
	if st := h.Stats(); st.Completed != 2 || st.Reclaimed != 2 {
		t.Fatalf("completed=%d reclaimed=%d, want 2/2", st.Completed, st.Reclaimed)
	}
}

// TestLeaseReclaimedTaskWonBack: the "dead" worker was merely slow; it
// polls again, wins its own reclaimed task back, and this time
// completes within the lease. The earlier expiry must not taint the
// legitimate second completion.
func TestLeaseReclaimedTaskWonBack(t *testing.T) {
	const lease = 10 * time.Second
	drv := core.NewSchedulerDriver(flat.NewRandom(outer.Kernel, 2, 1, rng.New(3).Split()))
	h, clock := newLeaseHost(t, drv, 1, lease)

	a0, _ := mustNext(t, h, 0, nil)
	clock.Advance(lease + time.Second)
	// Its own poll reclaims the batch and immediately re-grants it (it
	// is the only worker).
	a1, status := mustNext(t, h, 0, nil)
	if status != StatusOK || a1.Tasks[0] != a0.Tasks[0] {
		t.Fatalf("re-grant = %v/%s, want task %d", a1, status, a0.Tasks[0])
	}
	if _, _, err := h.Next(0, a1.Tasks); err != nil {
		t.Fatalf("completion of won-back task rejected: %v", err)
	}
	// The stain is cleared: a duplicate report now draws the generic
	// not-outstanding rejection, not a stale 409.
	_, _, err := h.Next(0, a1.Tasks)
	var lerr *LeaseExpiredError
	if err == nil || errors.As(err, &lerr) {
		t.Fatalf("double completion after win-back = %v, want generic rejection", err)
	}
}

// TestLeaseJanitorVsPollReclaimRace races the two reclaim arms —
// Registry.Sweep's ReclaimExpired and the poll path — over the same
// expired batch under the race detector: the tasks must be reclaimed
// exactly once, reassigned exactly once, and the run must drain with
// exact accounting.
func TestLeaseJanitorVsPollReclaimRace(t *testing.T) {
	const n, p = 6, 4
	const lease = 5 * time.Second
	drv := core.NewSchedulerDriver(flat.NewRandom(outer.Kernel, n, p, rng.New(4).Split()))
	h, clock := newLeaseHost(t, drv, 4, lease)

	a0, _ := mustNext(t, h, 0, nil) // worker 0 dies holding 4 tasks
	clock.Advance(lease + time.Second)

	var wg sync.WaitGroup
	var grantMu sync.Mutex
	granted := make(map[int][]core.Task) // racing polls' unreported batches
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ReclaimExpired() // the janitor arm
		}()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a, _, err := h.Next(w, nil) // the poll arm
			if err != nil {
				// Errorf, not Fatalf: FailNow must stay on the test
				// goroutine.
				t.Errorf("racing poll from worker %d: %v", w, err)
				return
			}
			grantMu.Lock()
			granted[w] = append(granted[w], a.Tasks...)
			grantMu.Unlock()
		}(1 + i%(p-1))
	}
	wg.Wait()

	if st := h.Stats(); st.Reclaimed != len(a0.Tasks) {
		t.Fatalf("reclaimed = %d after racing reclaims, want exactly %d", st.Reclaimed, len(a0.Tasks))
	}
	// Drain from the survivors — starting by reporting whatever the
	// racing polls won — and verify global exactly-once accounting:
	// total assignments = total + the one reclaimed batch.
	pending := granted
	for done := 0; done < p-1; {
		done = 0
		for w := 1; w < p; w++ {
			a, status := mustNext(t, h, w, pending[w])
			pending[w] = a.Tasks
			if status == StatusDone {
				done++
			}
		}
	}
	st := h.Stats()
	if st.Completed != n*n || st.Assigned != n*n+len(a0.Tasks) {
		t.Fatalf("completed=%d assigned=%d, want %d/%d", st.Completed, st.Assigned, n*n, n*n+len(a0.Tasks))
	}
}

// TestLeaseDisabledKeepsLegacyBehavior: with lease 0 nothing is ever
// reclaimed, no matter how stale — the pre-lease trust-the-worker
// contract, still the default.
func TestLeaseDisabledKeepsLegacyBehavior(t *testing.T) {
	drv := core.NewSchedulerDriver(flat.NewRandom(outer.Kernel, 2, 2, rng.New(5).Split()))
	h, clock := newLeaseHost(t, drv, 1, 0)
	a0, _ := mustNext(t, h, 0, nil)
	clock.Advance(365 * 24 * time.Hour)
	if got := h.ReclaimExpired(); got != 0 {
		t.Fatalf("ReclaimExpired reclaimed %d with leases disabled", got)
	}
	if _, _, err := h.Next(0, a0.Tasks); err != nil {
		t.Fatalf("year-late completion rejected without leases: %v", err)
	}
}

// waitDriver is a stub core.Driver whose first polls find nothing
// schedulable — the shape that exposed the StateCreated bug: polls
// were served (wait) but no assignment granted, so the run still
// reported "created".
type waitDriver struct{ grants int }

func (d *waitDriver) NextInto(int, core.TaskBuf) (core.Assignment, bool) {
	return core.Assignment{}, false
}
func (d *waitDriver) Next(int) (core.Assignment, bool) { return core.Assignment{}, false }
func (d *waitDriver) Complete(int, []core.Task)        {}
func (d *waitDriver) Reassign(int, []core.Task)        {}
func (d *waitDriver) Remaining() int                   { return 1 }
func (d *waitDriver) Total() int                       { return 1 }
func (d *waitDriver) P() int                           { return 2 }
func (d *waitDriver) Name() string                     { return "WaitStub" }

// TestStateReflectsPollsNotGrants pins the satellite fix: a run whose
// workers have polled — even if every poll drew wait — is draining,
// not created. Invalid polls (bad worker index, bogus completions)
// still do not count.
func TestStateReflectsPollsNotGrants(t *testing.T) {
	h := NewHost(&waitDriver{}, 1, 0)
	if got := h.State(); got != StateCreated {
		t.Fatalf("fresh host state = %s, want created", got)
	}
	if _, _, err := h.Next(99, nil); err == nil {
		t.Fatal("out-of-range worker accepted")
	}
	if got := h.State(); got != StateCreated {
		t.Fatalf("state after invalid poll = %s, want created", got)
	}
	if _, status, err := h.Next(0, nil); err != nil || status != StatusWait {
		t.Fatalf("stub poll = %s/%v", status, err)
	}
	if got := h.State(); got != StateDraining {
		t.Fatalf("state after a served wait poll = %s, want draining", got)
	}
}

// multiStepDriver grants `step` tasks per step, modeling a driver
// whose allocation step is coarser than one task.
type multiStepDriver struct {
	next, total, step int
}

func (d *multiStepDriver) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	if d.next >= d.total {
		return core.Assignment{}, false
	}
	a := core.Assignment{Tasks: buf[:0]}
	for i := 0; i < d.step && d.next < d.total; i++ {
		a.Tasks = append(a.Tasks, core.Task(d.next))
		d.next++
	}
	return a, true
}
func (d *multiStepDriver) Next(w int) (core.Assignment, bool) { return d.NextInto(w, nil) }
func (d *multiStepDriver) Complete(int, []core.Task)          {}
func (d *multiStepDriver) Reassign(int, []core.Task)          {}
func (d *multiStepDriver) Remaining() int                     { return d.total - d.next }
func (d *multiStepDriver) Total() int                         { return d.total }
func (d *multiStepDriver) P() int                             { return 1 }
func (d *multiStepDriver) Name() string                       { return "MultiStep" }

// TestHostBatchTargetNotClamped pins the batch-size contract from the
// Next doc comment: the batch target is a cutoff, not a clamp. A
// driver step is indivisible (its block accounting covers the whole
// step), so the granted batch may exceed the target by at most one
// step's tasks minus one — and never accretes a further step once the
// target is reached.
func TestHostBatchTargetNotClamped(t *testing.T) {
	const batch, step = 4, 3
	h := NewHost(&multiStepDriver{total: 12, step: step}, batch, 0)
	a, status, err := h.Next(0, nil)
	if err != nil || status != StatusOK {
		t.Fatalf("Next = %s/%v", status, err)
	}
	// Steps of 3: the loop takes 3 (below target), then 3 more
	// (reaching 6 ≥ 4) and must stop there — the documented bound of
	// batch + step - 1.
	if len(a.Tasks) != batch+step-1 {
		t.Fatalf("granted %d tasks, want the documented maximum %d", len(a.Tasks), batch+step-1)
	}
}

// TestLeaseReclaimKeepsNewerBatchSegmentOpen: a worker holding two
// batches (re-poll without report) loses only the older one to
// expiry. The open trace segment belongs to the newer, still-leased
// batch and must stay open until its real completion — not be stamped
// shut at reclaim time.
func TestLeaseReclaimKeepsNewerBatchSegmentOpen(t *testing.T) {
	const lease = 10 * time.Second
	drv := core.NewSchedulerDriver(flat.NewRandom(outer.Kernel, 4, 2, rng.New(6).Split()))
	h, clock := newLeaseHost(t, drv, 1, lease)

	a, _ := mustNext(t, h, 0, nil) // batch A at t0
	clock.Advance(lease / 2)
	b, _ := mustNext(t, h, 0, nil) // batch B at t0+L/2; A's segment closes here
	if len(a.Tasks) != 1 || len(b.Tasks) != 1 {
		t.Fatalf("grants = %v / %v", a, b)
	}

	// A expires, B does not; a bystander poll reclaims A only.
	clock.Advance(lease/2 + time.Second)
	mustNext(t, h, 1, nil)
	if st := h.Stats(); st.Reclaimed != 1 {
		t.Fatalf("reclaimed = %d, want only batch A's task", st.Reclaimed)
	}

	// B completes within its lease; its segment must end now, at the
	// completion instant — after the reclaim instant.
	clock.Advance(time.Second)
	completedAt := clock.Now().Sub(h.start).Seconds()
	if _, _, err := h.Next(0, b.Tasks); err != nil {
		t.Fatalf("completion of still-leased batch B rejected: %v", err)
	}
	tr := h.Trace()
	// Segment 0 is batch A (closed at B's grant), segment 1 is batch B.
	if got := tr.Segments[1].End; got != completedAt {
		t.Fatalf("batch B's segment ends at %g, want its completion instant %g (closed early by the reclaim?)", got, completedAt)
	}
}
