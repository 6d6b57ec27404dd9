package service

import (
	"fmt"
	"testing"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/durable"
	"hetsched/internal/events"
	"hetsched/internal/flat"
	"hetsched/internal/outer"
	"hetsched/internal/rng"
)

// pollP is the worker count of pollHost's runs.
const pollP = 64

// pollHost builds the host the allocation gate and BenchmarkHostNext
// poll: outer 2phases, n=128, p=pollP, batch 4, seeded by seed.
// withEvents attaches a live event stream (with one parked subscriber,
// so the publish path actually offers events somewhere) before the
// first poll, exactly as Options.NewRun does; a non-nil jr journals
// the run under an id of its own.
func pollHost(tb testing.TB, seed uint64, lease time.Duration, withEvents bool, jr *durable.Log) *Host {
	const n, batch = 128, 4
	drv := core.NewSchedulerDriver(flat.NewTwoPhasesAuto(outer.Kernel, n, pollP, rng.New(seed).Split()))
	h := NewHost(drv, batch, lease)
	if withEvents {
		st := events.NewBus(0).Run("alloc-test")
		sub := st.Subscribe(0, 64)
		tb.Cleanup(sub.Close)
		h.AttachEvents(st)
	}
	if jr != nil {
		h.AttachJournal(jr, fmt.Sprintf("alloc-test-%d", seed))
	}
	return h
}

// allocPollLoop builds a warmed-up host and returns a closure that
// performs one serial poll (round-robin worker, completing the
// previous grant). The warmup drains enough polls that every
// per-worker accumulator, grant-table slot, and scheduler slab has
// been touched, so the closure exercises the steady state. A poll
// answered done starts a fresh host (with the timer stopped under a
// benchmark); the allocation gate stops long before that.
func allocPollLoop(tb testing.TB, lease time.Duration, withEvents, withJournal bool) func() {
	tb.Helper()
	var jr *durable.Log
	if withJournal {
		var err error
		if jr, err = durable.Open(tb.TempDir()); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { jr.Close() })
	}
	seed := uint64(1)
	h := pollHost(tb, seed, lease, withEvents, jr)
	pending := make([][]core.Task, pollP)
	i := 0
	poll := func() {
		w := i % pollP
		a, status, err := h.Next(w, pending[w])
		if err != nil {
			tb.Fatal(err)
		}
		pending[w] = a.Tasks
		i++
		if status == StatusDone {
			if b, ok := tb.(*testing.B); ok {
				b.StopTimer()
				defer b.StartTimer()
			}
			seed++
			h = pollHost(tb, seed, lease, withEvents, jr)
			pending = make([][]core.Task, pollP)
		}
	}
	for j := 0; j < 2000; j++ {
		poll()
	}
	return poll
}

// TestHostNextSteadyStateAllocFree pins the tentpole guarantee: a
// serial Host.Next poll in steady state — grant-table hit, grant
// written into the worker's double-buffered accumulator, completions
// validated and applied — performs zero heap allocations. Any
// regression here shows up as GC pressure at 100k-worker fleet scale
// long before it shows up in ns/op.
//
// The events-enabled rows extend the guarantee to the hooks-on path:
// the per-poll event batch is presized at AttachEvents and
// Stream.PublishBatch stores pointer-free ring records into a
// preallocated ring, so observability costs the hot path stores, not
// allocations. (The full subscriber buffer sheds load through drop
// counters — also allocation-free.)
//
// The journal-enabled rows extend it again to the durability path: the
// mutation frame is built into the journal's reusable group-commit
// buffer (reset every Commit), and the poll appends nothing else — the
// driver's state is written only when a snapshot is cut — so a
// journaled steady-state poll costs one write(2) and zero heap
// allocations.
//
// The scenario has 16384 tasks at batch 4; warmup (2000) plus the
// measured polls (≤600) stay well inside the 4096-grant drain, so
// every measured poll takes the full grant path, never the done path.
func TestHostNextSteadyStateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		lease   time.Duration
		events  bool
		journal bool
	}{
		{"NoLease", 0, false, false},
		{"LeaseArmed", time.Hour, false, false},
		{"NoLeaseEvents", 0, true, false},
		{"LeaseArmedEvents", time.Hour, true, false},
		{"NoLeaseJournal", 0, false, true},
		{"LeaseArmedJournal", time.Hour, false, true},
		{"LeaseArmedEventsJournal", time.Hour, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			poll := allocPollLoop(t, tc.lease, tc.events, tc.journal)
			if avg := testing.AllocsPerRun(500, poll); avg != 0 {
				t.Errorf("steady-state Host.Next allocates %.2f objects/poll, want 0", avg)
			}
		})
	}
}
