package service

import (
	"fmt"
	"log"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/durable"
	"hetsched/internal/events"
	"hetsched/internal/stats"
	"hetsched/internal/trace"
)

// Host makes a single-goroutine core.Driver safe under concurrent
// requests: one mutex, mu, serializes every poll, as the paper's master
// is one serial decision point. Under it sit the driver and the
// core.Master that steps it, the outstanding-grant table, the
// reclaimed-from stains, the fence, the counters, the trace and the
// event-hook batch buffer.
//
// The grant itself is core.Master's, the one the simulator steps: it
// serves a worker's batch and keeps the task ledger of requests,
// grants, blocks, completions and reclaims. The Host keeps what the
// master lacks: the grant table, leases, the journal, the poll counter,
// a stats.Accumulator and histogram over served batch sizes, and a
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
	drv   core.Driver
	ms    *core.Master // drv's master, under mu
	p     int
	batch int

	// lease is how long a granted assignment stays owned by its worker
	// before the host may reclaim it (0 disables reclamation).
	lease time.Duration

	// mu guards every field below and the driver and master above.
	mu    sync.Mutex
	slots []workerSlot

	// outstanding maps every assigned-but-unreported task to the
	// executing worker plus its lease deadline; completions not present
	// here are rejected before they can reach (and panic) a DAG
	// coordinator. A specialized open-addressing table (see
	// granttable.go): the per-completed-task lookup-and-delete and
	// per-granted-task insert are the hottest map operations in the
	// service.
	outstanding grantTable
	// reclaimedFrom records (task, worker) pairs whose lease expired
	// while the worker held the task, so its late completion report is
	// rejected deterministically (409 lease expired) rather than as a
	// generic protocol violation. An entry is dropped if the same
	// worker legitimately completes the task after winning it back.
	// nil when leases are disabled.
	reclaimedFrom map[taskOwner]struct{}
	// nextExpiryNs is a lower bound on the earliest outstanding lease
	// deadline in UnixNano (0 when none), so a poll pays one comparison
	// instead of a table scan. It can run stale-early when the earliest
	// lease completes on time; the scan it then triggers finds nothing
	// and recomputes the true minimum.
	nextExpiryNs int64

	polls    int
	batchAcc stats.Accumulator
	// batchHist counts served batch sizes in power-of-two buckets
	// (bucket i covers (2^(i-1), 2^i] tasks; the last bucket absorbs
	// the indivisible-step overshoot past maxBatch).
	batchHist [batchBuckets]int64

	// ev is the run's event stream, nil unless observability is
	// attached (AttachEvents). Every publish is O(1) and non-blocking —
	// see package events — so the hooks below run under mu without
	// giving a slow subscriber a handle on the poll hot path. The hooks
	// accumulate one poll's events in evBuf and flush them in one
	// PublishBatch as mu is released (unlock), paying the stream
	// synchronization once per poll instead of once per event.
	// lastState tracks the last published lifecycle state so
	// transitions emit exactly one TypeState event.
	ev        *events.Stream
	evBuf     []events.Event
	lastState string

	// jr is the run's write-ahead journal, nil unless durability is
	// attached (AttachJournal / restore). Like the event hooks, the
	// journal rides mu: every accepted mutation is framed into the
	// journal's group-commit buffer under mu — so the on-disk record
	// order is exactly the mu acquisition order, the true serialization
	// point of the run — and flushed with one write(2) after mu is
	// released. muts is the per-run mutation
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
	// fenceCommitted), checked by every apply and reclaim pass. Fence
	// sets it under mu, so once it returns no mutation is in flight and
	// fillSnapshot cuts exactly what the destination will replay.
	fence int

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

// workerSlot is worker w's private poll scratch, touched only under
// mu: the master builds the granted batch in acc[flip] (the returned
// Assignment.Tasks aliases it; alternating buffers give the caller one
// full poll of grace before the backing array is reused). A poll
// answered done resets the slot to its zero value.
type workerSlot struct {
	acc  [2]core.TaskBuf
	flip uint8
	// undo journals the fused loop's deletions so a rejected report can
	// restore the outstanding table exactly.
	undo []gtSlot
}

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

// NewHost wraps drv, serving batches of about batch tasks per Next
// call (batch < 1 is treated as 1; see Next for the exact batch-size
// contract). A positive lease arms task reclamation: an assignment not
// reported back within lease is taken from its worker and fed back to
// the driver for reassignment (core.Driver.Reassign); lease <= 0
// disables reclamation and preserves the original trust-the-worker
// behavior.
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
	h := &Host{
		drv:   drv,
		ms:    core.NewMaster(drv),
		p:     p,
		batch: batch,
		lease: lease,
		slots: make([]workerSlot, p),
		open:  make([]int, p),
		now:   now,
	}
	if lease > 0 {
		h.reclaimedFrom = make(map[taskOwner]struct{})
	}
	for w := range h.open {
		h.open[w] = -1
	}
	h.start = h.now()
	h.last = h.start
	h.lastPoll = h.start
	h.lastState = StateCreated
	return h
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

// unlock publishes everything the critical section queued, in order,
// under one stream lock acquisition, then releases mu. Every path that
// can queue events leaves through it.
func (h *Host) unlock() {
	if len(h.evBuf) > 0 {
		h.ev.PublishBatch(h.evBuf)
		h.evBuf = h.evBuf[:0]
	}
	h.mu.Unlock()
}

// Batch returns the configured batch size.
func (h *Host) Batch() int { return h.batch }

// Lease returns the configured lease duration (0 when reclamation is
// disabled).
func (h *Host) Lease() time.Duration { return h.lease }

// Total returns the instance's task count (constant after
// construction, so no lock is needed).
func (h *Host) Total() int { return h.drv.Total() }

// Next applies worker w's completion report, then has the master serve
// w a batch of about the configured size (core.Master.Serve). The
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
// Batch-size contract: Master.Serve's cutoff. One driver step is
// indivisible — its block accounting covers the whole multi-task
// assignment — so the granted batch can exceed the target by up to one
// step's size minus one task. Drivers that serve single-task steps
// (all current kernels) never overshoot; TestHostBatchTargetNotClamped
// pins the general contract.
//
// When leases are armed, every poll first reclaims expired assignments
// (cost: one comparison unless something actually expired), so a
// wedged run heals on the next poll from any surviving worker without
// waiting for the registry janitor.
func (h *Host) Next(w int, completed []core.Task) (core.Assignment, string, error) {
	a, status, err := h.apply(h.now().UnixNano(), w, completed)
	if err == nil && h.jr != nil && !h.replay {
		// Group commit: the poll's journal frames (its own record, plus
		// any reclaim record its lease check produced) hit the kernel
		// with one write(2) before the response is released — off mu, so
		// a concurrent poll's commit may have flushed them already and
		// this one is a no-op. fsync is amortized inside the journal. A
		// failed commit fails the poll: the grant already happened in
		// memory (its lease reclaims it eventually), but the worker must
		// not act on an acknowledgment that was never made durable.
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
	h.mu.Lock()
	defer h.unlock()
	// Migration fence: either this poll took mu before Fence() did, and
	// completes before the snapshot is cut, or it is rejected wholesale
	// before anything mutates.
	if h.fence != fenceNone {
		return core.Assignment{}, "", &MigratedError{Run: h.runID, Done: h.fence == fenceCommitted}
	}
	// Reclaim before validating: a report racing its own lease expiry
	// resolves the same way (409) whether it arrives just after this
	// poll's reclaim or after the janitor's — determinism the tests pin
	// down to the injected clock.
	h.reclaimLocked(now)
	// Fused validate-and-apply: each owned task is deleted from the
	// outstanding table as it is validated — one lookup chain per task
	// instead of separate validate and apply passes — and the deletions
	// are journaled in the worker's slot, so the happy path stays
	// allocation-free and any rejection rolls the table back untouched.
	// Rejection is whole-report atomic: a duplicate slipping through
	// would panic the DAG coordinators with the run state half-updated.
	slot := &h.slots[w]
	undo := slot.undo[:0]
	for idx, t := range completed {
		s, found, took := h.outstanding.takeOwned(t, int32(w))
		if took {
			undo = append(undo, s)
			continue
		}
		for _, u := range undo {
			h.outstanding.put(core.Task(u.task), u.worker, u.expiryNs)
		}
		slot.undo = undo[:0]
		// A duplicate of a task this loop already consumed surfaces as a
		// miss; the prefix scan (error path only) tells it apart from a
		// stale or reclaimed task.
		switch _, stained := h.reclaimedFrom[taskOwner{t, w}]; {
		case slices.Contains(completed[:idx], t):
			return core.Assignment{}, "", fmt.Errorf("task %d reported complete twice in one request", t)
		case stained:
			if h.ev != nil {
				h.evBuf = append(h.evBuf, events.Event{Type: events.TypeConflict, TimeNs: timeNs, Worker: w, Task: int64(t)})
			}
			return core.Assignment{}, "", &LeaseExpiredError{Task: t}
		case found:
			return core.Assignment{}, "", fmt.Errorf("task %d is outstanding for worker %d, not %d", t, s.worker, w)
		}
		return core.Assignment{}, "", fmt.Errorf("task %d is not outstanding", t)
	}
	slot.undo = undo[:0]

	// The report is accepted: journal the poll. Under mu — the order of
	// records on disk must be the order the driver sees the polls — but
	// only framed into the commit buffer here; the write happens after
	// mu drops (see Next). Replayed polls skip the append (their record
	// is the one being replayed) but still advance the sequence, so
	// post-recovery polls continue it.
	if h.jr != nil {
		h.muts++
		if !h.replay {
			h.jr.AppendPoll(h.runID, h.muts, timeNs, int32(w), completed)
		}
	}
	h.lastPoll = now
	h.polls++
	if len(completed) > 0 {
		if h.reclaimedFrom != nil {
			for _, t := range completed {
				// The worker may have lost this task to an expiry once and
				// won it back; the legitimate completion clears the stain.
				delete(h.reclaimedFrom, taskOwner{t, w})
			}
		}
		h.ms.Complete(w, completed)
		if h.ev != nil {
			for _, t := range completed {
				// One event per task, so exactly-once accounting is
				// checkable from the stream alone.
				h.evBuf = append(h.evBuf, events.Event{Type: events.TypeComplete, TimeNs: timeNs, Worker: w, Task: int64(t)})
			}
		}
		if idx := h.open[w]; idx >= 0 {
			h.tr.SetEnd(idx, int64(now.Sub(h.start)))
			h.open[w] = -1
		}
		h.last = now
	}

	a, status := h.grantLocked(now, w, slot)
	h.noteStateLocked(now)
	return a, status, nil
}

// grantLocked is apply's grant phase, run under mu: the master serves
// w, and the host leases, counts and traces the batch. The batch is
// built in w's reusable buffers. The report is fully consumed and the
// buffers alternate, so the batch the caller is still holding (usually
// the one it just reported from) is not the one being overwritten.
func (h *Host) grantLocked(now time.Time, w int, slot *workerSlot) (core.Assignment, string) {
	slot.flip ^= 1
	a, served := h.ms.Serve(w, h.batch, slot.acc[slot.flip])
	switch {
	case served == core.Parked:
		return core.Assignment{}, StatusWait
	case served == core.Retired && h.outstanding.n > 0:
		// A drained driver may still be handed reclaimed tasks.
		return core.Assignment{}, StatusWait
	case served == core.Retired:
		// The run is over for good: nothing is left to grant and
		// nothing outstanding can be reported or reclaimed. Release
		// what only served grants: w's poll scratch and the empty grant
		// table (put rebuilds one if ever needed).
		*slot = workerSlot{}
		h.outstanding = grantTable{}
		return core.Assignment{}, StatusDone
	}
	if a.Tasks != nil {
		slot.acc[slot.flip] = a.Tasks // keep a regrown buffer
	}

	var expNs int64
	if h.lease > 0 {
		expNs = now.Add(h.lease).UnixNano()
		if h.nextExpiryNs == 0 || expNs < h.nextExpiryNs {
			h.nextExpiryNs = expNs
		}
	}
	n := len(a.Tasks)
	for _, t := range a.Tasks {
		h.outstanding.put(t, int32(w), expNs)
	}
	h.batchAcc.Add(float64(n))
	h.batchHist[batchBucket(n)]++
	h.last = now
	if h.ev != nil {
		h.evBuf = append(h.evBuf, events.Event{Type: events.TypeAssign, TimeNs: now.UnixNano(), Worker: w, Task: -1,
			Count: n, Blocks: a.Blocks})
	}
	if n == 0 {
		return core.Assignment{Blocks: a.Blocks}, StatusOK
	}
	at := int64(now.Sub(h.start))
	// A worker that re-polls without reporting holds two batches at
	// once; close the older segment now rather than orphaning it with
	// End == Start forever.
	if idx := h.open[w]; idx >= 0 {
		h.tr.SetEnd(idx, at)
	}
	h.open[w] = h.tr.Append(w, at, n, a.Blocks)
	return a, StatusOK
}

// ReclaimExpired reclaims every outstanding assignment whose lease
// deadline has passed, feeding the tasks back to the driver for
// reassignment, and returns how many tasks were reclaimed. The
// registry janitor calls it on every sweep so a run whose workers all
// died still heals; the poll path runs the same check opportunistically.
func (h *Host) ReclaimExpired() int {
	now := h.now()
	h.mu.Lock()
	n := h.reclaimLocked(now)
	h.unlock()
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

// expiredGrant is one reclaim victim; sorting the batch (by worker,
// then task) makes the reassignment order — and therefore which
// surviving worker redoes which task — deterministic, where a map walk
// would not be.
type expiredGrant struct {
	task   core.Task
	worker int
}

// reclaimLocked is the reclaim pass, run under mu. It returns at once
// unless a lease may have expired by now (nextExpiryNs) on an unfenced
// host: a fenced host's grants travel with the snapshot, and reclaiming
// them here would diverge from what the destination replays.
func (h *Host) reclaimLocked(now time.Time) int {
	nowNs := now.UnixNano()
	if h.lease <= 0 || h.fence != fenceNone || h.nextExpiryNs == 0 || nowNs < h.nextExpiryNs {
		return 0
	}
	var expired []expiredGrant
	var nextNs int64
	h.outstanding.forEach(func(t core.Task, worker int32, expiryNs int64) {
		if nowNs >= expiryNs {
			expired = append(expired, expiredGrant{task: t, worker: int(worker)})
		} else if nextNs == 0 || expiryNs < nextNs {
			nextNs = expiryNs
		}
	})
	h.nextExpiryNs = nextNs
	if len(expired) == 0 {
		// A scan that found nothing is stateless — it only tightened the
		// bound — so it is not journaled: replay may legitimately skip
		// or add such scans without diverging.
		return 0
	}
	// Something expired: this pass mutates, so it is a journaled
	// mutation. mu is held, so the record's position among the poll
	// records is exactly the pass's position in the driver's serial
	// history.
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
		h.outstanding.del(eg.task)
		h.reclaimedFrom[taskOwner{eg.task, eg.worker}] = struct{}{}
	}
	// Workers that still hold an unexpired batch after the deletions:
	// their open trace segment belongs to that newer, still-leased
	// batch and must not be closed by the reclaim of an older one.
	stillHolds := make(map[int]bool)
	h.outstanding.forEach(func(_ core.Task, worker int32, _ int64) {
		stillHolds[int(worker)] = true
	})
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
		h.ms.Abandon(w, ts)
		if h.ev != nil {
			for _, t := range ts {
				h.evBuf = append(h.evBuf, events.Event{Type: events.TypeReclaim, TimeNs: nowNs, Worker: w, Task: int64(t)})
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
// double-migrate guard). The flag is set under mu, so on return no
// mutation is in flight and a snapshot cut afterwards is the run's
// final state on this host.
func (h *Host) Fence() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fence != fenceNone {
		return false
	}
	h.fence = fencePending
	return true
}

// Unfence aborts a migration: the host resumes serving. Only valid
// after a successful Fence whose handoff failed.
func (h *Host) Unfence() { h.setFence(fenceNone) }

// commitFence marks the handoff complete: the run now lives on the
// destination and every late poll here draws a deterministic 410.
func (h *Host) commitFence() { h.setFence(fenceCommitted) }

func (h *Host) setFence(f int) {
	h.mu.Lock()
	h.fence = f
	h.mu.Unlock()
}

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
	case h.drv.Remaining() == 0 && h.outstanding.n == 0:
		return StateComplete
	default:
		return StateDraining
	}
}

// Stats snapshots the run's counters under mu. ID, kernel and strategy
// are filled in by the server, which owns the run metadata.
func (h *Host) Stats() StatsResponse {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	resp := StatsResponse{
		State:           h.stateLocked(),
		Total:           h.drv.Total(),
		Assigned:        h.ms.Assigned,
		Completed:       h.ms.Completed,
		Outstanding:     h.outstanding.n,
		Remaining:       h.drv.Remaining(),
		Reclaimed:       h.ms.Reclaimed,
		LeaseSeconds:    h.lease.Seconds(),
		Blocks:          h.ms.Blocks,
		Requests:        h.ms.Requests,
		Polls:           h.polls,
		Phase1Tasks:     -1,
		ElapsedSeconds:  now.Sub(h.start).Seconds(),
		MakespanSeconds: h.last.Sub(h.start).Seconds(),
		Workers:         make([]WorkerStats, h.p),
	}
	for w := range resp.Workers {
		resp.Workers[w] = WorkerStats{Worker: w, Requests: h.ms.RequestsPer[w], Tasks: h.ms.CompletedPer[w],
			Blocks: h.ms.BlocksPer[w], Reclaimed: h.ms.ReclaimedPer[w]}
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
