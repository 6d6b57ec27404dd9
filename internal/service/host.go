package service

import (
	"fmt"
	"log"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/durable"
	"hetsched/internal/events"
	"hetsched/internal/stats"
	"hetsched/internal/trace"
)

// Host makes a single-goroutine core.Driver safe under concurrent
// requests. The poll path is split across two lock tiers so that the
// parts of a poll that do not touch the driver do not serialize:
//
//   - A power-of-two array of stripes, indexed by worker id, owns the
//     exactly-once outstanding table and the reclaimed-from stain set.
//     Every grant to worker w lives in stripe(w) — the owner's-stripe
//     invariant — so report validation, duplicate detection and
//     completion deletes for w touch only stripe(w)'s lock.
//   - The core mutex (mu) owns the driver itself — a core.Driver is a
//     single-goroutine state machine, so stepping it is irreducibly
//     serial — plus the global counters, the batch statistics, the
//     trace and the event-hook batch buffer.
//
// Lock order is stripes (ascending index) before core; a poll takes
// stripe(w) then core, and the multi-stripe operations (lease reclaim,
// Stats) take every stripe in ascending order, then core. The global
// outstanding count and the earliest-lease lower bound are atomics so
// the done-check and the lease fast path never touch foreign stripes.
//
// The Host also owns the run's collectors: the per-worker load
// counters, a stats.Accumulator over served batch sizes, and a
// wall-clock trace.Log of every assignment, which Trace renders.
//
// Ownership contract of Next's return value: the returned
// Assignment.Tasks aliases one of two per-worker grant buffers that
// alternate poll to poll, so a batch stays readable through the same
// worker's next poll — in particular it can be passed back as that
// poll's completion report, the universal client pattern — and is
// overwritten on the worker's second subsequent poll. Callers that
// retain a batch longer must copy it; server.handleNext and the
// cluster harness do. Polls for one worker id must not be issued
// concurrently (a real worker is one client awaiting one response at
// a time).
type Host struct {
	drv core.Driver
	// bdrv is drv's buffered fast path, nil when the driver cannot
	// build assignments into a caller buffer (every current driver can).
	bdrv  core.BufferedDriver
	p     int
	batch int

	// lease is how long a granted assignment stays owned by its worker
	// before the host may reclaim it (0 disables reclamation).
	// reassigner is the driver's reclaim capability; leases are inert
	// when the driver does not provide one.
	lease      time.Duration
	reassigner core.Reassigner

	stripes    []hostStripe
	stripeMask int
	slots      []workerSlot

	// outstandingCount is the total size of every stripe's outstanding
	// table; the done-check (driver drained and nothing in flight)
	// reads it without visiting the stripes. Writers hold the owning
	// stripe's lock; the count is incremented before the core lock is
	// released on a grant, so a concurrent poll cannot observe a
	// drained driver with the grant not yet counted.
	outstandingCount atomic.Int64
	// nextExpiryNs is a lower bound on the earliest outstanding lease
	// deadline in UnixNano (0 when none), so the poll hot path pays one
	// atomic load and a comparison instead of a table scan. It can run
	// stale-early when the earliest lease completes on time; the scan
	// it then triggers finds nothing and recomputes the true minimum.
	// All writes happen under the core mutex (grants) or under every
	// stripe plus core (the reclaim pass).
	nextExpiryNs atomic.Int64

	// mu is the core lock: the driver, the global counters, the batch
	// statistics, the trace, the clock marks, and the event buffer.
	mu        sync.Mutex
	assigned  int
	completed int
	reclaimed int
	blocks    int
	requests  int
	polls     int
	// workers[w] is guarded by stripe(w)'s lock on the poll path; the
	// multi-stripe operations (reclaim, Stats) touch it holding every
	// stripe.
	workers  []WorkerStats
	batchAcc stats.Accumulator
	// batchHist counts served batch sizes in power-of-two buckets
	// (bucket i covers (2^(i-1), 2^i] tasks; the last bucket absorbs
	// the indivisible-step overshoot past maxBatch).
	batchHist [batchBuckets]int64

	// ev is the run's event stream, nil unless observability is
	// attached (AttachEvents). Every publish is O(1) and non-blocking —
	// see package events — so the hooks below run under mu without
	// giving a slow subscriber a handle on the poll hot path. The hooks
	// accumulate one poll's events in evBuf (guarded by mu) and flush
	// them in one PublishBatch per core-lock acquisition, paying the
	// stream synchronization once per poll instead of once per event.
	// lastState tracks the last published lifecycle state so
	// transitions emit exactly one TypeState event.
	ev        *events.Stream
	evBuf     []events.Event
	lastState string

	// jr is the run's write-ahead journal, nil unless durability is
	// attached (AttachJournal / restore). Like the event hooks, the
	// journal rides the core lock: every accepted mutation is framed
	// into the journal's group-commit buffer under mu — so the on-disk
	// record order is exactly the mu acquisition order, the true
	// serialization point of the run — and flushed with one write(2)
	// after the locks are released. muts is the per-run mutation
	// sequence (the create is 1); snapshots record it as their
	// watermark. replay suppresses journal appends while recovery is
	// feeding recorded mutations back through apply — the sequence
	// counter still advances, so a recovered run continues journaling
	// exactly where the crashed one stopped.
	jr     *durable.Log
	runID  string
	muts   uint64
	replay bool
	// fence is the migration gate (fenceNone/fencePending/
	// fenceCommitted). Checked under the worker's stripe lock on every
	// apply and under all locks by the reclaim pass, so Fence() —
	// which sets it and then drains by cycling every lock — fully
	// serializes against in-flight mutations: after Fence returns, the
	// state is frozen and fillSnapshot cuts exactly what the
	// destination will replay.
	fence atomic.Int32

	start time.Time
	// last is the instant of the last granted assignment or applied
	// completion (drives makespan-so-far); lastPoll additionally
	// counts wait/done polls. lastPoll keeps the TTL sweep from
	// expiring a run whose workers are still talking to the master —
	// which is also why the sweep alone cannot unwedge a run that lost
	// a worker: the survivors' wait polls keep it warm forever. Lease
	// reclamation, not the TTL, is the mechanism that survives that.
	last     time.Time
	lastPoll time.Time
	tr       trace.Log
	open     []int // per-worker index into tr of the open segment, -1 when none

	// now is the host's time source. Every timestamp the host takes —
	// lease deadlines, trace segment boundaries, makespan, the TTL's
	// LastActivity — flows through it, which is the virtual-clock
	// contract: a caller that injects a clock (NewHostWithClock; the
	// internal/cluster harness) owns time entirely, and the host never
	// consults the wall clock behind its back. The only requirement is
	// monotonicity: now() must never run backwards between calls
	// (advancing in discrete jumps, including zero-width ones, is
	// fine — the event-loop harness freezes it between events).
	now func() time.Time
}

// hostStripe is one shard of the per-worker poll state. The stripe for
// worker w is stripes[w & stripeMask], and — the owner's-stripe
// invariant — every grant to w is recorded here and nowhere else, so
// w's validation path never leaves its stripe.
type hostStripe struct {
	mu sync.Mutex
	// outstanding maps every assigned-but-unreported task owned by this
	// stripe's workers to the executing worker plus its lease deadline;
	// completions not present here are rejected before they can reach
	// (and panic) a DAG coordinator. A specialized open-addressing
	// table (see granttable.go): the per-completed-task
	// lookup-and-delete and per-granted-task insert are the hottest map
	// operations in the service.
	outstanding grantTable
	// reclaimedFrom records (task, worker) pairs whose lease expired
	// while the worker held the task, so its late completion report is
	// rejected deterministically (409 lease expired) rather than as a
	// generic protocol violation. An entry is dropped if the same
	// worker legitimately completes the task after winning it back.
	// Keyed by the reporting worker, so it lives in that worker's
	// stripe. nil when leases are disabled.
	reclaimedFrom map[taskOwner]struct{}
	// pad spaces stripes a cache line apart so neighboring stripe
	// locks do not false-share under contention.
	_ [24]byte
}

// workerSlot is worker w's private poll scratch, touched only while
// stripe(w) is held: acc[flip] accumulates the granted batch (the
// returned Assignment.Tasks aliases it; alternating buffers give the
// caller one full poll of grace before the backing array is reused),
// tmp holds one driver step and doubles as the sort scratch of the
// large-report duplicate check. A poll answered done resets the slot to
// its zero value.
type workerSlot struct {
	acc  [2][]core.Task
	flip uint8
	tmp  []core.Task
	// undo journals the fused loop's deletions so a rejected report can
	// restore the outstanding table exactly.
	undo []gtSlot
}

// maxStripes caps the stripe array: past 64 stripes the poll path is
// driver-bound, and a 100k-worker run should not pay 100k maps.
const maxStripes = 64

// taskOwner keys the reclaimedFrom set.
type taskOwner struct {
	task   core.Task
	worker int
}

// Fence states: a fenced host rejects every mutation so a migration
// can cut a consistent snapshot and hand ownership over without a
// straggling poll mutating state that was already shipped.
const (
	fenceNone      = 0 // serving normally
	fencePending   = 1 // handoff in progress: polls draw 409 and may retry
	fenceCommitted = 2 // the run left this host for good: polls draw 410
)

// MigratedError rejects a poll or completion on a run that is fenced
// for migration. While the handoff is in flight (Done == false) the
// server answers 409 Conflict — the worker retries and lands on
// whichever host wins. Once the migration committed (Done == true) the
// stale owner answers 410 Gone deterministically: the run lives
// elsewhere and no late completion can ever double-count here.
type MigratedError struct {
	Run  string
	Done bool
}

func (e *MigratedError) Error() string {
	if e.Done {
		return fmt.Sprintf("run %q migrated to another host", e.Run)
	}
	return fmt.Sprintf("run %q is migrating; retry", e.Run)
}

// LeaseExpiredError rejects a completion report for a task whose lease
// expired while the reporting worker held it: the task was reclaimed
// and possibly already reassigned, so the first reassignment wins and
// the late report is refused. The server maps it to 409 Conflict.
type LeaseExpiredError struct {
	Task core.Task
}

func (e *LeaseExpiredError) Error() string {
	return fmt.Sprintf("lease expired: task %d was reclaimed from the reporting worker", e.Task)
}

// JournalError reports that an accepted mutation's write-ahead journal
// commit failed: the in-memory state has advanced but the record never
// reached the kernel, so the "acknowledged mutations survive a process
// kill" contract cannot be honored for it. The server maps it to 500 so
// the client never mistakes the mutation for durable.
type JournalError struct {
	Err error
}

func (e *JournalError) Error() string {
	return fmt.Sprintf("journal commit failed: %v", e.Err)
}

func (e *JournalError) Unwrap() error { return e.Err }

// smallReport is the completion-report size up to which duplicate
// detection uses an allocation-free O(k²) scan instead of sorting a
// scratch copy. Measured on the reference container (BenchmarkDupScan16
// ≈ 99 ns, 0 allocs vs BenchmarkDupScanMap16 ≈ 403 ns, 3 allocs; k=17
// variants alongside, see host_bench_test.go), the scan wins
// comfortably at and just past the cutoff — the true crossover sits far
// higher. The constant is therefore a worst-case bound, not a tuning
// point: a malicious or oversized report (up to maxBatch = 4096 tasks)
// must not buy k²/2 ≈ 8M comparisons under the run's stripe lock, so
// anything past a batch-sized report switches to the O(k log k) sort.
const smallReport = 16

// dupInReport returns a task reported more than once in completed, if
// any. Reports of length ≤ smallReport use the quadratic scan; longer
// ones build a map. The poll path uses the allocation-free
// (*workerSlot).dup instead; this standalone form remains for the
// cutoff benchmarks.
func dupInReport(completed []core.Task) (core.Task, bool) {
	if len(completed) <= 1 {
		return 0, false
	}
	if len(completed) <= smallReport {
		for i := 1; i < len(completed); i++ {
			for j := 0; j < i; j++ {
				if completed[i] == completed[j] {
					return completed[i], true
				}
			}
		}
		return 0, false
	}
	seen := make(map[core.Task]struct{}, len(completed))
	for _, t := range completed {
		if _, dup := seen[t]; dup {
			return t, true
		}
		seen[t] = struct{}{}
	}
	return 0, false
}

// NewHost wraps drv, serving batches of about batch tasks per Next
// call (batch < 1 is treated as 1; see Next for the exact batch-size
// contract). A positive lease arms task reclamation: an assignment not
// reported back within lease is taken from its worker and fed back to
// the driver for reassignment, provided the driver implements
// core.Reassigner (both core.SchedulerDriver and dag.Driver do);
// lease <= 0 disables reclamation and preserves the original
// trust-the-worker behavior.
func NewHost(drv core.Driver, batch int, lease time.Duration) *Host {
	return NewHostWithClock(drv, batch, lease, time.Now)
}

// NewHostWithClock is NewHost with an injected time source (see the
// virtual-clock contract on the now field). The host's epoch —
// start/last/lastPoll — is taken from the clock at construction, so a
// virtual clock yields fully virtual traces, leases and makespans.
func NewHostWithClock(drv core.Driver, batch int, lease time.Duration, now func() time.Time) *Host {
	if batch < 1 {
		batch = 1
	}
	if lease < 0 {
		lease = 0
	}
	p := drv.P()
	nstripes := 1
	for nstripes < p && nstripes < maxStripes {
		nstripes <<= 1
	}
	h := &Host{
		drv:        drv,
		p:          p,
		batch:      batch,
		lease:      lease,
		stripes:    make([]hostStripe, nstripes),
		stripeMask: nstripes - 1,
		slots:      make([]workerSlot, p),
		workers:    make([]WorkerStats, p),
		open:       make([]int, p),
		now:        now,
	}
	// Pre-grow the outstanding tables so the poll path spends its
	// steady state deleting and re-inserting into existing capacity
	// instead of paying rehash allocations mid-run (the AllocsPerRun
	// guards pin this). The hint is clamped: the tables together hold
	// about one in-flight batch per worker, but a 100k-worker host must
	// not pre-pay megabytes it may never use.
	mapHint := (2*p*batch + nstripes - 1) / nstripes
	if mapHint < 8 {
		mapHint = 8
	} else if mapHint > 1024 {
		mapHint = 1024
	}
	h.bdrv, _ = drv.(core.BufferedDriver)
	armed := false
	if lease > 0 {
		if ra, ok := drv.(core.Reassigner); ok {
			h.reassigner = ra
			armed = true
		} else {
			h.lease = 0 // the driver cannot take tasks back
		}
	}
	for i := range h.stripes {
		h.stripes[i].outstanding.init(mapHint)
		if armed {
			h.stripes[i].reclaimedFrom = make(map[taskOwner]struct{})
		}
	}
	for w := range h.workers {
		h.workers[w].Worker = w
		h.open[w] = -1
	}
	h.start = h.now()
	h.last = h.start
	h.lastPoll = h.start
	h.lastState = StateCreated
	return h
}

// stripe returns worker w's stripe (the owner's-stripe invariant hangs
// off this map being a pure function of w).
func (h *Host) stripe(w int) *hostStripe { return &h.stripes[w&h.stripeMask] }

// lockStripes / unlockStripes bracket the multi-stripe operations.
// Ascending acquisition order is the deadlock rule; core (h.mu) is
// always taken after the stripes.
func (h *Host) lockStripes() {
	for i := range h.stripes {
		h.stripes[i].mu.Lock()
	}
}

func (h *Host) unlockStripes() {
	for i := len(h.stripes) - 1; i >= 0; i-- {
		h.stripes[i].mu.Unlock()
	}
}

// AttachEvents connects the host to its per-run event stream. Call it
// before the first poll (it is not synchronized against Next);
// Options.NewRun does. A nil-stream host pays nothing on the poll
// path.
//
// The per-poll scratch batch is part of the allocation-free poll
// contract: a steady-state poll queues at most one event per reported
// completion plus an assign, a state transition and a conflict, so
// presizing to batch+8 here means the hooks-on hot path never grows
// the buffer (TestHostNextSteadyStateAllocFree covers events-enabled
// hosts). Reclaim storms past the presize grow it once and the larger
// buffer is retained — same policy as the worker grant accumulators.
func (h *Host) AttachEvents(st *events.Stream) {
	h.ev = st
	if want := h.batch + 8; cap(h.evBuf) < want {
		h.evBuf = make([]events.Event, 0, want)
	}
}

// AttachJournal connects the host to the run's write-ahead journal.
// Call it before the first poll (it is not synchronized against Next);
// Registry.RecordCreate does. A nil-journal host pays nothing on the
// poll path.
func (h *Host) AttachJournal(jr *durable.Log, runID string) {
	h.jr = jr
	h.runID = runID
}

// journalCreate, journalExpire and journalSwept frame a registry-level
// lifecycle record on the run's behalf. Drawing the sequence number and
// appending the frame happen inside one h.mu critical section — the
// same discipline apply uses for poll records — so a concurrently
// accepted poll can never journal a later sequence ahead of an earlier
// lifecycle record (replay rejects out-of-order sequences as gaps).
// No-ops on a journal-less host; the caller carries the Commit.
func (h *Host) journalCreate(timeNs int64, payload []byte) {
	if h.jr == nil {
		return
	}
	h.mu.Lock()
	h.muts++
	h.jr.AppendCreate(h.runID, h.muts, timeNs, payload)
	h.mu.Unlock()
}

func (h *Host) journalExpire(timeNs int64) {
	if h.jr == nil {
		return
	}
	h.mu.Lock()
	h.muts++
	h.jr.AppendExpire(h.runID, h.muts, timeNs)
	h.mu.Unlock()
}

func (h *Host) journalSwept(timeNs int64) {
	if h.jr == nil {
		return
	}
	h.mu.Lock()
	h.muts++
	h.jr.AppendSwept(h.runID, h.muts, timeNs)
	h.mu.Unlock()
}

// batchBuckets covers batch sizes 1, 2, 4, ..., maxBatch (2^12) in
// power-of-two buckets.
const batchBuckets = 13

// batchBucket maps a served batch size to its histogram bucket:
// ceil(log2(n)), clamped into the last bucket for the overshoot past
// maxBatch that indivisible driver steps may produce.
func batchBucket(n int) int {
	if n <= 1 {
		return 0
	}
	b := bits.Len(uint(n - 1))
	if b >= batchBuckets {
		return batchBuckets - 1
	}
	return b
}

// batchHistogram freezes the counters into the wire shape, trimming
// trailing empty buckets.
func batchHistogram(hist [batchBuckets]int64) *BatchHistogram {
	last := -1
	for i, c := range hist {
		if c > 0 {
			last = i
		}
	}
	if last < 0 {
		return nil
	}
	out := &BatchHistogram{Le: make([]int, last+1), Counts: make([]int64, last+1)}
	for i := 0; i <= last; i++ {
		out.Le[i] = 1 << i
		out.Counts[i] = hist[i]
	}
	return out
}

// noteStateLocked queues a TypeState event when the lifecycle state
// moved since the last publish. Called (with mu held) at the end of
// every successful poll; no-op without an attached stream.
func (h *Host) noteStateLocked(now time.Time) {
	if h.ev == nil {
		return
	}
	if st := h.stateLocked(); st != h.lastState {
		h.lastState = st
		h.evBuf = append(h.evBuf, events.Event{Type: events.TypeState, TimeNs: now.UnixNano(), Worker: -1, Task: -1, State: st})
	}
}

// flushEventsLocked publishes everything the current call queued, in
// order, under one stream lock acquisition. Called (with mu held) on
// the way out of every path that can queue events.
func (h *Host) flushEventsLocked() {
	if len(h.evBuf) == 0 {
		return
	}
	h.ev.PublishBatch(h.evBuf)
	h.evBuf = h.evBuf[:0]
}

// Batch returns the configured batch size.
func (h *Host) Batch() int { return h.batch }

// Lease returns the configured lease duration (0 when reclamation is
// disabled).
func (h *Host) Lease() time.Duration { return h.lease }

// Total returns the instance's task count (constant after
// construction, so no lock is needed).
func (h *Host) Total() int { return h.drv.Total() }

// Next applies worker w's completion report, then computes its next
// assignment: the driver is stepped until the accumulated batch
// reaches the batch size or the driver has nothing more to give. The
// returned status tells the worker whether to execute (StatusOK), back
// off and retry (StatusWait) or retire (StatusDone). Errors indicate a
// malformed request (bad worker index, completion of a task the worker
// does not hold) and leave the run state untouched, except
// *LeaseExpiredError: the reported task's lease expired and it was
// reclaimed from w, so the reassignment — not the late report — wins.
// Rejection is whole-report atomic in every case, including 409: a
// report mixing still-valid completions with a reclaimed task applies
// nothing, and the dropped valid work is redone after its own expiry.
// Accounting stays exactly-once either way; clients that poll (and
// thereby report) once per batch never mix batches in one report.
//
// The returned Assignment.Tasks aliases w's reusable grant buffer and
// is valid until w's next poll; see the ownership contract on Host.
//
// Batch-size contract: the driver is stepped until the batch reaches
// the configured size, but one driver step is indivisible — its block
// accounting covers the whole multi-task assignment — so the granted
// batch can exceed the target by up to one step's size minus one task.
// Drivers that serve single-task steps (all current kernels) never
// overshoot; TestHostBatchTargetNotClamped pins the general contract.
//
// When leases are armed, every poll first reclaims expired assignments
// (cost: one atomic load and a comparison unless something actually
// expired), so a wedged run heals on the next poll from any surviving
// worker without waiting for the registry janitor.
func (h *Host) Next(w int, completed []core.Task) (core.Assignment, string, error) {
	a, status, err := h.apply(h.now().UnixNano(), w, completed)
	if err == nil && h.jr != nil && !h.replay {
		// Group commit: the poll's journal frames (its own record, plus
		// any reclaim record its lease check produced) hit the kernel
		// with one write(2) before the response is released — off the
		// locks, so a concurrent poll's commit may have flushed them
		// already and this one is a no-op. fsync is amortized inside the
		// journal. A failed commit fails the poll: the grant already
		// happened in memory (its lease reclaims it eventually), but the
		// worker must not act on an acknowledgment that was never made
		// durable.
		if cerr := h.jr.Commit(); cerr != nil {
			return core.Assignment{}, "", &JournalError{Err: cerr}
		}
	}
	return a, status, err
}

// apply is the one mutation path for a worker poll: the live Next
// above journals and applies through it, and recovery replays journal
// records through it with their recorded timestamps — literally the
// same code, which is what makes replay exact. timeNs is the poll's
// instant (UnixNano); rejected polls mutate nothing and are never
// journaled.
func (h *Host) apply(timeNs int64, w int, completed []core.Task) (core.Assignment, string, error) {
	if w < 0 || w >= h.p {
		return core.Assignment{}, "", fmt.Errorf("worker %d out of range [0, %d)", w, h.p)
	}
	now := time.Unix(0, timeNs)
	// Reclaim before validating: a report racing its own lease expiry
	// resolves the same way (409) whether it arrives just after this
	// poll's reclaim or after the janitor's — determinism the tests
	// pin down to the injected clock. The pass locks every stripe, so
	// it must run before we take ours.
	if h.lease > 0 {
		if e := h.nextExpiryNs.Load(); e != 0 && now.UnixNano() >= e {
			h.reclaimAll(now)
		}
	}
	st := h.stripe(w)
	slot := &h.slots[w]
	st.mu.Lock()
	// Migration fence: either this poll took the stripe before Fence()
	// (which drains by cycling every stripe, so the poll completes
	// before the snapshot is cut) or it arrives after and is rejected
	// wholesale before anything mutates.
	if f := h.fence.Load(); f != fenceNone {
		st.mu.Unlock()
		return core.Assignment{}, "", &MigratedError{Run: h.runID, Done: f == fenceCommitted}
	}
	// Small reports get the quadratic duplicate pre-scan so a
	// hand-written malformed request draws the duplicate diagnosis
	// regardless of what else is wrong with it. Large reports skip it:
	// the fused loop below detects duplicates as they collide with
	// their own deletion, without an O(k log k) pass over the happy
	// path. Rejection must be whole-report atomic in every case — a
	// duplicate slipping through would panic the DAG coordinators with
	// the run state half-updated.
	if len(completed) > 1 && len(completed) <= smallReport {
		for i := 1; i < len(completed); i++ {
			for j := 0; j < i; j++ {
				if completed[i] == completed[j] {
					st.mu.Unlock()
					return core.Assignment{}, "", fmt.Errorf("task %d reported complete twice in one request", completed[i])
				}
			}
		}
	}
	// Fused validate-and-apply: each owned task is deleted from the
	// outstanding table as it is validated — one map lookup chain per
	// task instead of separate validate and apply passes — and the
	// deletions are journaled so any rejection rolls the table back
	// untouched. The journal lives in the worker's slot, so the happy
	// path stays allocation-free.
	undo := slot.undo[:0]
	for idx, t := range completed {
		s, found, took := st.outstanding.takeOwned(t, int32(w))
		if took {
			undo = append(undo, s)
			continue
		}
		// Rejection. Diagnose under the stripe (everything relevant is
		// stripe-local), then restore the journaled deletions.
		var rejected error
		conflict := false
		if st.reclaimedFrom != nil {
			if _, rec := st.reclaimedFrom[taskOwner{t, w}]; rec {
				rejected = &LeaseExpiredError{Task: t}
				conflict = true
			}
		}
		if rejected == nil && found {
			rejected = fmt.Errorf("task %d is outstanding for worker %d, not %d", t, s.worker, w)
		}
		if rejected == nil {
			// A duplicate of a task this loop already consumed surfaces
			// as a miss; the prefix scan (error path only) tells it
			// apart from a genuinely stale report.
			for j := 0; j < idx; j++ {
				if completed[j] == t {
					rejected = fmt.Errorf("task %d reported complete twice in one request", t)
					break
				}
			}
		}
		for _, u := range undo {
			st.outstanding.put(core.Task(u.task), u.worker, u.expiryNs)
		}
		slot.undo = undo[:0]
		if conflict && h.ev != nil {
			h.mu.Lock()
			h.evBuf = append(h.evBuf, events.Event{Type: events.TypeConflict, TimeNs: now.UnixNano(), Worker: w, Task: int64(t)})
			h.flushEventsLocked()
			h.mu.Unlock()
		}
		st.mu.Unlock()
		if rejected == nil {
			// Not in any stripe-local table: consult the other stripes
			// for the exact diagnosis (the messages the protocol tests
			// pin down). Must run with our stripe released — the scan
			// takes stripe locks and the order discipline is ascending.
			rejected = h.staleReportError(t, w)
		}
		return core.Assignment{}, "", rejected
	}
	slot.undo = undo[:0]

	// The report is applied. The global count is decremented before the
	// driver hears the completion, so a concurrent done-check cannot
	// observe a drained driver with these tasks still counted in
	// flight.
	if len(completed) > 0 {
		if st.reclaimedFrom != nil {
			for _, t := range completed {
				// The worker may have lost this task to an expiry once and
				// won it back; the legitimate completion clears the stain.
				delete(st.reclaimedFrom, taskOwner{t, w})
			}
		}
		h.outstandingCount.Add(-int64(len(completed)))
	}

	h.mu.Lock()
	// The report is accepted: journal the poll. Under mu — the order
	// of records on disk must be the order the driver sees the polls —
	// but only framed into the commit buffer here; the write happens
	// after the locks drop (see Next). Replayed polls skip the append
	// (their record is the one being replayed) but still advance the
	// sequence, so post-recovery polls continue it.
	if h.jr != nil {
		h.muts++
		if !h.replay {
			h.jr.AppendPoll(h.runID, h.muts, timeNs, int32(w), completed)
		}
	}
	h.lastPoll = now
	h.polls++
	if len(completed) > 0 {
		h.drv.Complete(w, completed)
		if h.ev != nil {
			for _, t := range completed {
				// One event per task, so exactly-once accounting is
				// checkable from the stream alone.
				h.evBuf = append(h.evBuf, events.Event{Type: events.TypeComplete, TimeNs: now.UnixNano(), Worker: w, Task: int64(t)})
			}
		}
		h.completed += len(completed)
		h.workers[w].Tasks += len(completed)
		if idx := h.open[w]; idx >= 0 {
			h.tr.SetEnd(idx, int64(now.Sub(h.start)))
			h.open[w] = -1
		}
		h.last = now
	}

	// Grant: step the driver into the worker's reusable buffers. The
	// report is fully consumed and the buffers alternate, so the batch
	// the caller is still holding (usually the one it just reported
	// from) is not the one being overwritten.
	slot.flip ^= 1
	acc := slot.acc[slot.flip][:0]
	blocks := 0
	granted := false
	for steps := 0; steps < h.batch && len(acc) < h.batch; steps++ {
		var na core.Assignment
		var ok bool
		if h.bdrv != nil {
			na, ok = h.bdrv.NextInto(w, slot.tmp)
			if ok && na.Tasks != nil {
				// NextInto may have regrown the buffer; keep the larger one.
				slot.tmp = na.Tasks[:0]
			}
		} else {
			na, ok = h.drv.Next(w)
		}
		if !ok {
			break
		}
		granted = true
		acc = append(acc, na.Tasks...)
		blocks += na.Blocks
	}
	slot.acc[slot.flip] = acc
	if !granted {
		status := StatusWait
		if h.drv.Remaining() == 0 && h.outstandingCount.Load() == 0 {
			// The run is over for good: nothing is left to grant and
			// nothing outstanding can be reported or reclaimed. Release
			// what only served grants: w's poll scratch and, once empty,
			// its stripe's table (put rebuilds one if ever needed).
			status = StatusDone
			*slot = workerSlot{}
			if st.outstanding.n == 0 {
				st.outstanding = grantTable{}
			}
		}
		h.noteStateLocked(now)
		if h.ev != nil {
			h.flushEventsLocked()
		}
		h.mu.Unlock()
		st.mu.Unlock()
		return core.Assignment{}, status, nil
	}

	var expNs int64
	if h.lease > 0 {
		expNs = now.Add(h.lease).UnixNano()
		if e := h.nextExpiryNs.Load(); e == 0 || expNs < e {
			h.nextExpiryNs.Store(expNs) // serialized: all writers hold mu
		}
	}
	for _, t := range acc {
		st.outstanding.put(t, int32(w), expNs)
	}
	h.outstandingCount.Add(int64(len(acc)))
	h.assigned += len(acc)
	h.blocks += blocks
	h.requests++
	h.workers[w].Requests++
	h.workers[w].Blocks += blocks
	h.batchAcc.Add(float64(len(acc)))
	h.batchHist[batchBucket(len(acc))]++
	h.last = now
	if h.ev != nil {
		h.evBuf = append(h.evBuf, events.Event{Type: events.TypeAssign, TimeNs: now.UnixNano(), Worker: w, Task: -1,
			Count: len(acc), Blocks: blocks})
	}
	if len(acc) > 0 {
		at := int64(now.Sub(h.start))
		// A worker that re-polls without reporting holds two batches at
		// once; close the older segment now rather than orphaning it
		// with End == Start forever.
		if idx := h.open[w]; idx >= 0 {
			h.tr.SetEnd(idx, at)
		}
		h.open[w] = h.tr.Append(w, at, len(acc), blocks)
	}
	h.noteStateLocked(now)
	if h.ev != nil {
		h.flushEventsLocked()
	}
	h.mu.Unlock()
	st.mu.Unlock()
	a := core.Assignment{Blocks: blocks}
	if len(acc) > 0 {
		a.Tasks = acc
	}
	return a, StatusOK, nil
}

// staleReportError diagnoses a reported task that is not outstanding
// for the reporting worker and not in its stripe: either another
// worker holds it (in that worker's stripe) or nobody does. The scan
// takes one stripe lock at a time — the error path mutates nothing, so
// it does not need a cross-stripe atomic view.
func (h *Host) staleReportError(t core.Task, w int) error {
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		owner, _, ok := s.outstanding.get(t)
		s.mu.Unlock()
		if ok {
			return fmt.Errorf("task %d is outstanding for worker %d, not %d", t, owner, w)
		}
	}
	return fmt.Errorf("task %d is not outstanding", t)
}

// ReclaimExpired reclaims every outstanding assignment whose lease
// deadline has passed, feeding the tasks back to the driver for
// reassignment, and returns how many tasks were reclaimed. The
// registry janitor calls it on every sweep so a run whose workers all
// died still heals; the poll path runs the same check opportunistically.
func (h *Host) ReclaimExpired() int {
	if h.lease <= 0 {
		return 0
	}
	now := h.now()
	if e := h.nextExpiryNs.Load(); e == 0 || now.UnixNano() < e {
		return 0
	}
	n := h.reclaimAll(now)
	if n > 0 && h.jr != nil && !h.replay {
		// The janitor path has no poll behind it to carry the commit —
		// and no request to fail when it goes wrong. The frames stay
		// buffered for the next commit; log so an ENOSPC/EIO janitor is
		// not silent.
		if err := h.jr.Commit(); err != nil {
			log.Printf("service: journaling reclaim for run %q: %v", h.runID, err)
		}
	}
	return n
}

// reclaimAll is the full reclaim pass: every stripe locked ascending,
// then core. Callers have already taken the atomic fast path, so
// reaching here means some lease has (probably) expired.
func (h *Host) reclaimAll(now time.Time) int {
	h.lockStripes()
	h.mu.Lock()
	if h.fence.Load() != fenceNone {
		// A fenced host's grants travel with the snapshot; reclaiming
		// them here would diverge from what the destination replays.
		h.mu.Unlock()
		h.unlockStripes()
		return 0
	}
	n := h.reclaimLocked(now)
	if h.ev != nil {
		h.flushEventsLocked()
	}
	h.mu.Unlock()
	h.unlockStripes()
	return n
}

// expiredGrant is one reclaim victim; sorting the batch (by worker,
// then task) makes the reassignment order — and therefore which
// surviving worker redoes which task — deterministic, where a map walk
// would not be.
type expiredGrant struct {
	task   core.Task
	worker int
}

// reclaimLocked runs with every stripe and the core mutex held. The
// caller has already passed the atomic next-expiry gate.
func (h *Host) reclaimLocked(now time.Time) int {
	if h.lease <= 0 {
		return 0
	}
	var expired []expiredGrant
	var nextNs int64
	nowNs := now.UnixNano()
	for i := range h.stripes {
		h.stripes[i].outstanding.forEach(func(t core.Task, worker int32, expiryNs int64) {
			if nowNs >= expiryNs {
				expired = append(expired, expiredGrant{task: t, worker: int(worker)})
			} else if nextNs == 0 || expiryNs < nextNs {
				nextNs = expiryNs
			}
		})
	}
	h.nextExpiryNs.Store(nextNs)
	if len(expired) == 0 {
		// A scan that found nothing is stateless — it only tightened the
		// atomic bound — so it is not journaled: replay may legitimately
		// skip or add such scans without diverging.
		return 0
	}
	// Something expired: this pass mutates, so it is a journaled
	// mutation. Every stripe and mu are held, so the record's position
	// among the poll records is exactly the pass's position in the
	// driver's serial history.
	if h.jr != nil {
		h.muts++
		if !h.replay {
			h.jr.AppendReclaim(h.runID, h.muts, nowNs)
		}
	}
	sort.Slice(expired, func(i, j int) bool {
		if expired[i].worker != expired[j].worker {
			return expired[i].worker < expired[j].worker
		}
		return expired[i].task < expired[j].task
	})
	for _, eg := range expired {
		s := h.stripe(eg.worker)
		s.outstanding.del(eg.task)
		s.reclaimedFrom[taskOwner{eg.task, eg.worker}] = struct{}{}
	}
	h.outstandingCount.Add(-int64(len(expired)))
	// Workers that still hold an unexpired batch after the deletions:
	// their open trace segment belongs to that newer, still-leased
	// batch and must not be closed by the reclaim of an older one.
	stillHolds := make(map[int]bool)
	for i := range h.stripes {
		h.stripes[i].outstanding.forEach(func(_ core.Task, worker int32, _ int64) {
			stillHolds[int(worker)] = true
		})
	}
	at := int64(now.Sub(h.start))
	// The sort grouped each (presumed dead) worker's tasks into one
	// contiguous ascending run; hand each run to the driver in one
	// Reassign.
	for lo := 0; lo < len(expired); {
		hi := lo
		w := expired[lo].worker
		for hi < len(expired) && expired[hi].worker == w {
			hi++
		}
		ts := make([]core.Task, 0, hi-lo)
		for _, eg := range expired[lo:hi] {
			ts = append(ts, eg.task)
		}
		h.reassigner.Reassign(w, ts)
		h.reclaimed += len(ts)
		h.workers[w].Reclaimed += len(ts)
		if h.ev != nil {
			for _, t := range ts {
				h.evBuf = append(h.evBuf, events.Event{Type: events.TypeReclaim, TimeNs: now.UnixNano(), Worker: w, Task: int64(t)})
			}
		}
		// Close the dead worker's open trace segment: the batch ended —
		// by expiry, not completion — at reclaim time. A reassignment
		// opens a fresh segment under the new owner as usual.
		if idx := h.open[w]; idx >= 0 && !stillHolds[w] {
			h.tr.SetEnd(idx, at)
			h.open[w] = -1
		}
		lo = hi
	}
	return len(expired)
}

// Fence freezes the host for migration: every subsequent mutation —
// polls, completions, lease reclaims — is rejected with
// *MigratedError (409) until Unfence or commitFence resolves the
// handoff. It reports whether this call won the fence; a false return
// means a migration is already in flight or committed (the
// double-migrate guard). On return every in-flight mutation has
// drained, so a snapshot cut afterwards is the run's final state on
// this host.
func (h *Host) Fence() bool {
	if !h.fence.CompareAndSwap(fenceNone, fencePending) {
		return false
	}
	// Drain: cycling every stripe plus the core lock guarantees no
	// apply that missed the flag is still mutating.
	h.lockStripes()
	h.mu.Lock()
	h.mu.Unlock()
	h.unlockStripes()
	return true
}

// Unfence aborts a migration: the host resumes serving. Only valid
// after a successful Fence whose handoff failed.
func (h *Host) Unfence() { h.fence.Store(fenceNone) }

// commitFence marks the handoff complete: the run now lives on the
// destination and every late poll here draws a deterministic 410.
func (h *Host) commitFence() { h.fence.Store(fenceCommitted) }

// State returns the host's lifecycle view: created before the first
// valid worker poll, complete once the driver is drained and every
// assigned task has been reported back, draining in between.
func (h *Host) State() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stateLocked()
}

func (h *Host) stateLocked() string {
	switch {
	// Count every valid poll, not just granted assignments: a DAG run
	// whose first pollers all drew wait (or even done) has served
	// workers and is no longer "created".
	case h.polls == 0:
		return StateCreated
	case h.drv.Remaining() == 0 && h.outstandingCount.Load() == 0:
		return StateComplete
	default:
		return StateDraining
	}
}

// Stats snapshots the run's counters. ID, kernel and strategy are
// filled in by the server, which owns the run metadata. The snapshot
// holds every stripe plus the core lock, so it is as atomic as the
// old single-mutex one.
func (h *Host) Stats() StatsResponse {
	h.lockStripes()
	defer h.unlockStripes()
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	outstanding := 0
	for i := range h.stripes {
		outstanding += h.stripes[i].outstanding.n
	}
	resp := StatsResponse{
		State:           h.stateLocked(),
		Total:           h.drv.Total(),
		Assigned:        h.assigned,
		Completed:       h.completed,
		Outstanding:     outstanding,
		Remaining:       h.drv.Remaining(),
		Reclaimed:       h.reclaimed,
		LeaseSeconds:    h.lease.Seconds(),
		Blocks:          h.blocks,
		Requests:        h.requests,
		Polls:           h.polls,
		Phase1Tasks:     -1,
		ElapsedSeconds:  now.Sub(h.start).Seconds(),
		MakespanSeconds: h.last.Sub(h.start).Seconds(),
		Workers:         append([]WorkerStats(nil), h.workers...),
	}
	// Polls per second over the run's elapsed time (0 before the clock
	// first advances — a zero denominator must not leak NaN into JSON).
	if resp.ElapsedSeconds > 0 {
		resp.PollsPerSecond = float64(h.polls) / resp.ElapsedSeconds
	}
	if h.batchAcc.N() > 0 { // Summary of an empty accumulator is NaN, which JSON rejects
		resp.BatchTasks = h.batchAcc.Summarize()
		resp.BatchSizes = batchHistogram(h.batchHist)
	}
	if po, ok := h.drv.(core.PhaseObserver); ok {
		resp.Phase1Tasks = po.Phase1Tasks()
	}
	return resp
}

// Trace returns a snapshot of the wall-clock assignment trace.
// Segments of still-outstanding assignments have End == Start.
func (h *Host) Trace() *trace.Trace {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tr.Trace(h.p)
}

// LastActivity returns the time of the last valid worker poll of any
// kind (run creation time before any). The registry's TTL sweep keys
// expiry on it, so a run whose workers are stuck in wait polls while
// one long task executes never expires under them.
func (h *Host) LastActivity() time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastPoll
}
