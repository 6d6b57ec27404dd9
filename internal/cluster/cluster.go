// Package cluster is a deterministic virtual-time cluster harness for
// the scheduler service: it drives the *real* service.Host, Registry
// and (in HTTP mode) the full JSON wire path with scripted fleets of
// virtual workers whose per-poll service times come from
// speeds.Model — so the paper's heterogeneous platforms, including the
// dynamically drifting dyn.5/dyn.20 scenarios, run end-to-end against
// schedd instead of only against the offline simulator.
//
// The harness is an event loop over virtual time. Every timestamp the
// service takes — lease deadlines, trace segments, makespans, TTL
// idleness — flows through the injected clock (service.Options.Now /
// NewHostWithClock), so a 10k-worker, multi-run scenario with crashes,
// restarts, stragglers, partitions and bursty arrivals executes in
// milliseconds of wall time and, for a fixed seed, produces a
// bit-identical outcome every time (and the identical outcome in
// direct and HTTP mode — the wire adds bytes, not behavior).
//
// Worker model: a worker polls the master, reporting the batch it just
// executed and receiving the next one; executing a batch takes
// Σ cost(task)/speed(worker) virtual seconds with the speed re-sampled
// after every task (exactly sim.RunDriver's accounting, so drift
// models drift once per task). A worker that draws "wait" parks and is
// woken by completions on its run (DAG kernels), by lease-expiry
// echoes of crashes and partitions, and by the periodic janitor sweep;
// a 409 lease-conflict drops the batch and re-polls — the resilient
// client behavior the protocol prescribes.
package cluster

import (
	"fmt"
	"os"
	"sync"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/rng"
	"hetsched/internal/service"
	"hetsched/internal/speeds"
)

// Mode selects the transport scenarios reach the service by; the
// topology (Scenario.Hosts) is the same either way.
type Mode int

const (
	// Direct routes through the router in process and calls Host
	// methods: the transport-free mode, fast enough for 100k-worker
	// fleets.
	Direct Mode = iota
	// HTTP speaks the full JSON protocol to the router over a loopback
	// socket, and the router to the owning host over another, both
	// served through the request loop as cmd/schedd serves them; one
	// synchronous request per event, so strict decoding, status mapping
	// and response construction are inside the deterministic loop.
	HTTP
)

func (m Mode) String() string {
	if m == HTTP {
		return "http"
	}
	return "direct"
}

// clock is the scenario's virtual time source. The event loop is the
// only writer; the mutex exists because HTTP-mode handler goroutines
// read it through Host.now while the loop blocks on the response.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

// epoch is the arbitrary fixed instant virtual time starts from.
var epoch = time.Unix(1_700_000_000, 0)

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advanceTo(t time.Time) {
	c.mu.Lock()
	if t.After(c.t) {
		c.t = t
	}
	c.mu.Unlock()
}

// evKind discriminates loop events.
type evKind int

const (
	evArrive evKind = iota // create a run, start its fleet
	evPoll                 // one worker poll (report + request)
	evWake                 // wake up to k parked workers of a run
	evSweep                // registry janitor pass
	evScript               // scripted fault (crash/restart/slow/partition)
	// Observer-plane events (worker indexes h.subs): processed off the
	// virtual timeline — they advance neither the clock nor the event
	// counter, so subscribers cannot perturb the outcome hash.
	evDrain  // scripted slow-subscriber drain tick
	evSubCtl // subscriber disconnect (k=0) / reconnect (k=1)
)

// ev is one event; at is a virtual-nanosecond offset from epoch and
// seq breaks ties FIFO, which — with the single-threaded loop — is
// what makes the whole scenario deterministic.
type ev struct {
	at     int64
	seq    uint64
	kind   evKind
	run    int
	worker int
	gen    uint64 // evPoll: validity generation
	k      int    // evWake: how many to wake
	script Event  // evScript payload
}

func (e ev) before(o ev) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// evHeap is a hand-rolled binary min-heap (the same shape as the
// simulator's) so the loop allocates nothing per event.
type evHeap struct{ h []ev }

func (q *evHeap) len() int { return len(q.h) }

func (q *evHeap) push(e ev) {
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.h[i].before(q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *evHeap) pop() ev {
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q.h) && q.h[l].before(q.h[small]) {
			small = l
		}
		if r < len(q.h) && q.h[r].before(q.h[small]) {
			small = r
		}
		if small == i {
			return top
		}
		q.h[i], q.h[small] = q.h[small], q.h[i]
		i = small
	}
}

// workerState is one virtual worker. A live worker is in exactly one
// of three states: it has one scheduled poll event (executing or about
// to poll), it is parked (drew wait, holds nothing, waits for a wake),
// or it is retired/dead.
type workerState struct {
	gen       uint64 // bumped on crash/restart to invalidate scheduled polls
	dead      bool
	retired   bool
	parked    bool
	cur       uint8   // which of bufs holds the pending batch
	slow      float64 // service-time multiplier (straggler knob)
	partUntil int64   // virtual ns; unreachable until then (0 = reachable)
	pending   []core.Task
	grantAt   int64 // virtual ns of the pending batch's grant
	execNs    int64 // scheduled execution time of the pending batch
	// bufs are the worker's two alternating grant buffers: a poll
	// reports bufs[cur] (the pending batch) while the backend writes
	// the new grant into bufs[cur^1], so each worker's steady-state
	// polling allocates nothing. Recycled with the fleet slab.
	bufs [2][]core.Task
}

// runState is one run's live bookkeeping during the loop.
type runState struct {
	idx      int
	spec     RunSpec
	info     service.RunInfo
	model    speeds.Model
	initial  []float64
	coster   func(core.Task) float64 // nil: every task costs 1
	isDAG    bool
	leaseNs  int64
	arrived  bool
	complete bool
	// lost: the run's host crashed (HostCrash). Its workers retired on
	// discovery and the run is reported Lost, not wedged.
	lost bool

	workers     []workerState
	parkedCount int
	wakeCursor  int

	accepted  map[core.Task]int
	conflicts int
	busyNs    []int64
}

// harness is the running scenario.
type harness struct {
	sc      Scenario
	mode    Mode
	clock   *clock
	backend *backend
	q       evHeap
	seq     uint64
	runs    []*runState
	subs    []*subState
	events  int
	polls   int
	nowNs   int64
	slabs   *slabs
}

const (
	// wakeEps is how far past a lease deadline the crash/partition echo
	// wake fires, so the woken poll is strictly on the expired side.
	wakeEps = int64(time.Millisecond)
	// expiryWake is how many parked workers a lease-expiry echo or a
	// janitor sweep wakes: enough to pick up a reclaimed wedge task
	// without stampeding the fleet.
	expiryWake = 4
)

// Run executes the scenario to completion (or its virtual deadline)
// under the given mode and returns the collected per-run results.
// Errors are harness-level failures — transport errors, protocol
// violations the service rejected, invalid scenarios; a run that
// merely wedges (cannot finish before the deadline) is reported in the
// Result and caught by CheckInvariants instead.
func Run(sc Scenario, mode Mode) (*Result, error) {
	sc = sc.withDefaults()
	if err := validate(sc); err != nil {
		return nil, err
	}
	if mode != Direct && mode != HTTP {
		return nil, fmt.Errorf("cluster: unknown mode %d", mode)
	}
	h := &harness{sc: sc, mode: mode, clock: &clock{t: epoch}, slabs: slabPool.Get().(*slabs)}
	h.q.h = h.slabs.heap[:0]
	defer h.release()
	// A journaled scenario gets a private on-disk journal directory, one
	// host-<i> subdirectory of write-ahead log and snapshots per host.
	// MasterCrash and RingChange recover from it. Removed with the
	// scenario — durability is being tested, not accumulated.
	var journalDir string
	if sc.Journal {
		dir, err := os.MkdirTemp("", "hetsched-cluster-journal-")
		if err != nil {
			return nil, fmt.Errorf("cluster: journal dir: %w", err)
		}
		journalDir = dir
		defer os.RemoveAll(dir)
	}
	b, err := newBackend(sc, mode, h.clock.now, journalDir)
	if err != nil {
		return nil, err
	}
	h.backend = b
	defer b.close()

	// Platform speed models are drawn at setup in run order, so the
	// scenario seed alone pins every fleet regardless of arrival
	// interleaving.
	root := rng.New(sc.Seed)
	for i, spec := range sc.Runs {
		model := spec.Speeds.build(spec.P, root.Split())
		k := service.LookupKernel(spec.Kernel)
		h.runs = append(h.runs, &runState{
			idx:     i,
			spec:    spec,
			model:   model,
			initial: model.Initial(),
			coster:  k.Coster(spec.N),
			isDAG:   k.DAG != nil,
			leaseNs: int64(leaseDuration(spec.LeaseSeconds)),
			workers: h.slabs.fleet(spec.P),
			// accepted and busyNs escape into the Result, so they are
			// fresh per Run; accepted is presized at arrival, when the
			// run's task total is known.
			busyNs: make([]int64, spec.P),
		})
		for w := range h.runs[i].workers {
			h.runs[i].workers[w].slow = 1
		}
		h.push(ev{at: int64(spec.ArriveAt), kind: evArrive, run: i})
	}
	for _, e := range sc.Events {
		h.push(ev{at: int64(e.At), kind: evScript, run: e.Run, worker: e.Worker, script: e})
	}
	if sc.JanitorEvery > 0 {
		h.push(ev{at: int64(sc.JanitorEvery), kind: evSweep})
	}
	h.setupSubscribers()

	deadline := int64(sc.Deadline)
	for h.q.len() > 0 {
		e := h.q.pop()
		if e.at > deadline {
			break
		}
		if e.kind == evDrain || e.kind == evSubCtl {
			// Observer plane: processed in virtual order but off the
			// timeline — no clock advance, no event count, no feedback.
			h.dispatchObserver(e)
			continue
		}
		h.nowNs = e.at
		h.clock.advanceTo(epoch.Add(time.Duration(e.at)))
		h.events++
		if err := h.dispatch(e); err != nil {
			return nil, err
		}
		h.drainEager()
	}
	return h.collect()
}

// validate rejects scenarios the loop cannot run.
func validate(sc Scenario) error {
	if len(sc.Runs) == 0 {
		return fmt.Errorf("cluster: scenario %q has no runs", sc.Name)
	}
	for i, r := range sc.Runs {
		if service.LookupKernel(r.Kernel) == nil {
			return fmt.Errorf("cluster: run %d has the unknown kernel %q", i, r.Kernel)
		}
	}
	if sc.Hosts > 1 {
		// Federated placement hashes the run id, so every run needs a
		// pinned, unique, wire-valid one.
		seen := make(map[string]bool, len(sc.Runs))
		for i, r := range sc.Runs {
			if err := service.ValidateRunID(r.RunID); err != nil {
				return fmt.Errorf("cluster: federated run %d needs a pinned RunID: %v", i, err)
			}
			if seen[r.RunID] {
				return fmt.Errorf("cluster: duplicate RunID %q", r.RunID)
			}
			seen[r.RunID] = true
		}
	}
	for i, e := range sc.Events {
		if e.Kind == Checkpoint || e.Kind == MasterCrash {
			// Master-side events: they target the journaled single host,
			// not a run or worker.
			if !sc.Journal {
				return fmt.Errorf("cluster: event %d (%v) needs Scenario.Journal", i, e.Kind)
			}
			if sc.Hosts > 1 {
				return fmt.Errorf("cluster: event %d (%v) targets the single master; federated hosts crash via HostCrash", i, e.Kind)
			}
			if e.Kind == MasterCrash && len(sc.Subscribers) > 0 {
				// The restarted master's event bus is fresh; a scripted
				// subscriber cannot span the crash.
				return fmt.Errorf("cluster: event %d: MasterCrash with scripted subscribers", i)
			}
			continue
		}
		if e.Kind == HostCrash {
			if sc.Hosts <= 1 {
				return fmt.Errorf("cluster: event %d crashes host %d of a single-host scenario", i, e.Host)
			}
			if e.Host < 0 || e.Host >= sc.Hosts {
				return fmt.Errorf("cluster: event %d crashes host %d of %d", i, e.Host, sc.Hosts)
			}
			continue
		}
		if e.Kind == Migrate || e.Kind == RingChange {
			// Placement-plane events: they move runs between federated
			// journaled hosts, not workers within one.
			if sc.Hosts <= 1 {
				return fmt.Errorf("cluster: event %d (%v) needs a federated topology (Hosts > 1)", i, e.Kind)
			}
			if !sc.Journal {
				return fmt.Errorf("cluster: event %d (%v) needs Scenario.Journal (migration ships the write-ahead journal)", i, e.Kind)
			}
			if len(sc.Subscribers) > 0 {
				// A migrated run's event bus moves hosts; a scripted
				// subscriber's stream handle cannot span the move.
				return fmt.Errorf("cluster: event %d: %v with scripted subscribers", i, e.Kind)
			}
			if e.Kind == Migrate {
				if e.Run < 0 || e.Run >= len(sc.Runs) {
					return fmt.Errorf("cluster: event %d migrates run %d of %d", i, e.Run, len(sc.Runs))
				}
				if e.Host < 0 || e.Host >= sc.Hosts {
					return fmt.Errorf("cluster: event %d migrates to host %d of %d", i, e.Host, sc.Hosts)
				}
			}
			continue
		}
		if e.Run < 0 || e.Run >= len(sc.Runs) {
			return fmt.Errorf("cluster: event %d targets run %d of %d", i, e.Run, len(sc.Runs))
		}
		if e.Worker < 0 || e.Worker >= sc.Runs[e.Run].P {
			return fmt.Errorf("cluster: event %d targets worker %d of %d", i, e.Worker, sc.Runs[e.Run].P)
		}
		if e.Kind == Partition && e.Duration <= 0 {
			return fmt.Errorf("cluster: event %d partitions for %v", i, e.Duration)
		}
		// A factor below 1 would speed the worker past its drawn
		// platform speed and falsely trip the makespan work bound.
		if e.Kind == Slow && e.Factor < 1 {
			return fmt.Errorf("cluster: event %d slows by factor %g < 1", i, e.Factor)
		}
	}
	return validateSubscribers(sc)
}

func (h *harness) push(e ev) {
	e.seq = h.seq
	h.seq++
	h.q.push(e)
}

func (h *harness) dispatch(e ev) error {
	switch e.kind {
	case evArrive:
		return h.arrive(e.run)
	case evPoll:
		return h.poll(e.run, e.worker, e.gen)
	case evWake:
		h.wake(h.runs[e.run], e.k)
		return nil
	case evSweep:
		return h.sweepTick()
	case evScript:
		return h.applyScript(e.script)
	}
	return fmt.Errorf("cluster: unknown event kind %d", e.kind)
}

// arrive creates the run and launches its fleet's first polls. With
// Stagger 0 the entire fleet registers on one virtual instant — the
// thundering herd — and the FIFO tie-break serves it in worker order.
func (h *harness) arrive(run int) error {
	rs := h.runs[run]
	info, err := h.backend.create(run, rs.spec)
	if err != nil {
		return fmt.Errorf("cluster: creating run %d: %w", run, err)
	}
	rs.info = info
	rs.arrived = true
	rs.accepted = make(map[core.Task]int, info.Total)
	h.attachSubscribers(run, info.ID)
	for w := range rs.workers {
		h.push(ev{at: h.nowNs + int64(w)*int64(h.sc.Stagger), kind: evPoll, run: run, worker: w})
	}
	return nil
}

// poll is one worker master-interaction: report the executed batch,
// receive the next verdict, schedule the consequence.
func (h *harness) poll(run, worker int, gen uint64) error {
	rs := h.runs[run]
	ws := &rs.workers[worker]
	if ws.retired || ws.dead || ws.gen != gen {
		return nil // stale event: the worker crashed or restarted since
	}
	if ws.partUntil > h.nowNs {
		// Unreachable: carry the finished batch to the heal instant.
		h.push(ev{at: ws.partUntil, kind: evPoll, run: run, worker: worker, gen: gen})
		return nil
	}
	h.polls++
	// The backend writes the new grant into the buffer the worker is
	// NOT currently reporting from (bufs[cur^1]); ws.pending stays
	// readable for the acceptance accounting below, then the buffers
	// swap roles.
	res, conflict, err := h.backend.next(run, worker, ws.pending, ws.bufs[ws.cur^1][:0])
	if err != nil {
		return fmt.Errorf("cluster: run %d worker %d: %w", run, worker, err)
	}
	if res.hostDown {
		if h.sc.Journal {
			// The run's host crashed, but its journal survives: a
			// scripted RingChange will resurrect the run on the new
			// ring owner. Keep the finished batch and retry — the
			// post-recovery master accepts it exactly once (the journal
			// replay re-established the lease watermark).
			h.push(ev{at: h.nowNs + int64(h.sc.WaitDelay), kind: evPoll, run: run, worker: worker, gen: gen})
			return nil
		}
		// The run's host crashed: this worker just discovered there is
		// no master left. The whole fleet stands down — a real worker
		// pool drains on persistent 503s the same way.
		h.loseRun(rs)
		return nil
	}
	if conflict {
		// Lease lost in a race: the reassignment wins, the batch is
		// abandoned, the worker keeps polling.
		rs.conflicts++
		ws.pending = nil
		h.push(ev{at: h.nowNs + int64(h.sc.WaitDelay), kind: evPoll, run: run, worker: worker, gen: gen})
		return nil
	}
	reported := len(ws.pending)
	if reported > 0 {
		for _, t := range ws.pending {
			rs.accepted[t]++
		}
		rs.busyNs[worker] += ws.execNs
		ws.pending = nil
		ws.execNs = 0
		// Completions may have released dependents: wake parked
		// workers. Flat kernels release nothing on completion (reclaims
		// are covered by the sweep and expiry wakes), so only DAG runs
		// pay the wake traffic.
		if rs.isDAG && rs.parkedCount > 0 {
			h.wake(rs, 2*reported+2)
		}
	}
	switch res.status {
	case service.StatusDone:
		ws.retired = true
		h.finishRun(rs)
	case service.StatusWait:
		ws.parked = true
		rs.parkedCount++
	case service.StatusOK:
		if len(res.tasks) == 0 {
			// A zero-task grant (data-aware end-game flush): nothing to
			// execute, re-poll shortly.
			h.push(ev{at: h.nowNs + int64(h.sc.WaitDelay), kind: evPoll, run: run, worker: worker, gen: gen})
			return nil
		}
		durNs := int64(h.execute(rs, worker, res.tasks) * float64(time.Second))
		if durNs < 1 {
			durNs = 1
		}
		ws.cur ^= 1
		ws.bufs[ws.cur] = res.tasks
		ws.pending = res.tasks
		ws.grantAt = h.nowNs
		ws.execNs = durNs
		h.push(ev{at: h.nowNs + durNs, kind: evPoll, run: run, worker: worker, gen: gen})
	default:
		return fmt.Errorf("cluster: run %d worker %d: unknown status %q", run, worker, res.status)
	}
	return nil
}

// execute accounts the virtual execution time of a batch: cost/speed
// per task with the speed re-sampled after every task (drift models
// drift exactly once per task, as in sim), scaled by the worker's
// straggler factor.
func (h *harness) execute(rs *runState, worker int, tasks []core.Task) float64 {
	sec := 0.0
	for _, t := range tasks {
		cost := 1.0
		if rs.coster != nil {
			cost = rs.coster(t)
		}
		sec += cost / rs.model.Speed(worker)
		rs.model.OnTaskDone(worker)
	}
	return sec * rs.workers[worker].slow
}

// finishRun marks the run complete and retires its parked workers:
// parked workers hold nothing (a park always follows an accepted
// report), so nothing is lost by not granting them a farewell poll.
func (h *harness) finishRun(rs *runState) {
	rs.complete = true
	for w := range rs.workers {
		if rs.workers[w].parked {
			rs.workers[w].parked = false
			rs.workers[w].retired = true
		}
	}
	rs.parkedCount = 0
}

// loseRun marks a run lost to its host's crash: every worker retires
// immediately — there is no master left to poll or report to — and
// the run is reported Lost instead of wedged.
func (h *harness) loseRun(rs *runState) {
	if rs.lost {
		return
	}
	rs.lost = true
	for w := range rs.workers {
		ws := &rs.workers[w]
		ws.parked = false
		ws.retired = true
		ws.pending = nil
		ws.execNs = 0
	}
	rs.parkedCount = 0
}

// wake unparks up to k workers of rs, round-robin from the wake
// cursor, scheduling their polls at the current instant (FIFO after
// the current event).
func (h *harness) wake(rs *runState, k int) {
	if rs.complete || rs.lost || rs.parkedCount == 0 {
		return
	}
	p := len(rs.workers)
	for scanned := 0; scanned < p && k > 0 && rs.parkedCount > 0; scanned++ {
		w := rs.wakeCursor
		rs.wakeCursor = (rs.wakeCursor + 1) % p
		ws := &rs.workers[w]
		if !ws.parked {
			continue
		}
		ws.parked = false
		rs.parkedCount--
		k--
		h.push(ev{at: h.nowNs, kind: evPoll, run: rs.idx, worker: w, gen: ws.gen})
	}
}

// sweepTick is the janitor: one Registry.Sweep (lease reclaim for
// runs whose workers all died, TTL expiry), then a small wake per
// incomplete run so a reclaim is picked up, then reschedule while
// anything is unfinished.
func (h *harness) sweepTick() error {
	h.backend.sweep()
	unfinished := false
	for _, rs := range h.runs {
		if rs.complete || rs.lost {
			continue
		}
		unfinished = true
		if rs.arrived {
			h.wake(rs, expiryWake)
		}
	}
	if unfinished {
		h.push(ev{at: h.nowNs + int64(h.sc.JanitorEvery), kind: evSweep})
	}
	return nil
}

// checkHandoff asserts the placement conservation law at the virtual
// instant a migration or rebalance completes — not just at collection:
// no run held by two hosts, and the router's fleet-wide view exactly
// the union of the live hosts' registries. A migration that leaked a
// run onto both sides of the handoff (or dropped it from the router's
// ledger) fails the scenario here, at the instant it happened.
func (h *harness) checkHandoff() error {
	router, perHost, err := h.backend.placement()
	if err != nil {
		return fmt.Errorf("cluster: snapshotting mid-handoff placement: %w", err)
	}
	seen := make(map[string]int, len(router))
	n := 0
	for host, ids := range perHost {
		for _, id := range ids {
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("cluster: mid-handoff: run %q held by both host %d and host %d", id, prev, host)
			}
			seen[id] = host
			n++
		}
	}
	if n != len(router) {
		return fmt.Errorf("cluster: mid-handoff: router lists %d runs, live hosts hold %d", len(router), n)
	}
	for _, id := range router {
		if _, ok := seen[id]; !ok {
			return fmt.Errorf("cluster: mid-handoff: router lists %q, no live host holds it", id)
		}
	}
	return nil
}

// applyScript applies one scripted fault.
func (h *harness) applyScript(e Event) error {
	switch e.Kind {
	case HostCrash:
		// Kill the host; each of its runs stands down as its workers
		// discover the outage on their next polls (scheduled polls of
		// executing workers, janitor wakes for parked fleets).
		h.backend.crashHost(e.Host)
		return nil
	case Checkpoint:
		return h.backend.checkpoint()
	case MasterCrash:
		// Kill the master and recover it from its journal directory.
		// Instantaneous in virtual time: the workers' scheduled polls
		// land on the restarted master, which must serve the exact
		// pre-crash state.
		return h.backend.crashMaster()
	case Migrate:
		// Snapshot-ship-replay the run to e.Host. Instantaneous in
		// virtual time: the handoff's 503 window closes before any
		// worker samples it, so steady-state polls never observe the
		// move — exactly the transparency the router promises.
		if err := h.backend.migrate(e.Run, e.Host); err != nil {
			return err
		}
		return h.checkHandoff()
	case RingChange:
		// Rebalance onto ring epoch e.Epoch, scavenging any crashed
		// host's journal onto the new owner first. Every run whose
		// owner moved is migrated before the epoch is published.
		if err := h.backend.ringChange(e.Epoch); err != nil {
			return err
		}
		return h.checkHandoff()
	}
	rs := h.runs[e.Run]
	ws := &rs.workers[e.Worker]
	switch e.Kind {
	case Crash:
		if ws.dead || ws.retired {
			return nil
		}
		if ws.parked {
			ws.parked = false
			rs.parkedCount--
		}
		h.scheduleExpiryWake(e.Run, rs, ws)
		ws.dead = true
		ws.gen++
		ws.pending = nil
		ws.execNs = 0
	case Restart:
		if !ws.dead {
			return nil
		}
		ws.dead = false
		ws.gen++
		ws.pending = nil
		ws.execNs = 0
		ws.partUntil = 0
		h.push(ev{at: h.nowNs, kind: evPoll, run: e.Run, worker: e.Worker, gen: ws.gen})
	case Slow:
		ws.slow = e.Factor // validate() guarantees ≥ 1
	case Partition:
		if ws.dead || ws.retired {
			return nil
		}
		ws.partUntil = h.nowNs + int64(e.Duration)
		h.scheduleExpiryWake(e.Run, rs, ws)
	}
	return nil
}

// scheduleExpiryWake schedules a wake just past the lease deadline of
// the batch a crashed or partitioned worker holds: if the rest of the
// fleet is parked on its write locks (the pure wedge), somebody must
// be polling when the lease expires for the poll-path reclaim to heal
// the run.
func (h *harness) scheduleExpiryWake(run int, rs *runState, ws *workerState) {
	if rs.leaseNs <= 0 || len(ws.pending) == 0 {
		return
	}
	at := ws.grantAt + rs.leaseNs + wakeEps
	if at < h.nowNs {
		at = h.nowNs
	}
	h.push(ev{at: at, kind: evWake, run: run, k: expiryWake})
}

// collect snapshots every run's collectors into the Result.
func (h *harness) collect() (*Result, error) {
	h.collectSubscribers()
	pub, drop := h.backend.busTotals()
	res := &Result{
		Scenario:     h.sc,
		Mode:         h.mode,
		Hosts:        len(h.backend.hosts),
		Events:       h.events,
		Polls:        h.polls,
		FinalVirtual: time.Duration(h.nowNs),
		BusPublished: pub,
		BusDropped:   drop,
	}
	router, perHost, err := h.backend.placement()
	if err != nil {
		return nil, fmt.Errorf("cluster: snapshotting placement: %w", err)
	}
	res.RouterRuns, res.HostRuns = router, perHost
	for i, rs := range h.runs {
		rr := RunResult{
			Spec:          rs.spec,
			Info:          rs.info,
			HostIdx:       h.backend.ownerOf(i),
			Lost:          rs.lost,
			Accepted:      rs.accepted,
			Conflicts:     rs.conflicts,
			BusyNanos:     rs.busyNs,
			InitialSpeeds: rs.initial,
			Arrived:       rs.arrived,
			maxFactor:     rs.spec.Speeds.maxSpeedFactor(),
		}
		if rs.arrived && !rs.lost {
			st, err := h.backend.stats(i)
			if err != nil {
				return nil, fmt.Errorf("cluster: stats of run %d: %w", i, err)
			}
			tr, err := h.backend.traceOf(i)
			if err != nil {
				return nil, fmt.Errorf("cluster: trace of run %d: %w", i, err)
			}
			rr.Stats, rr.Trace = st, tr
		}
		for _, ss := range h.subs {
			if ss.spec.Run == i {
				rr.Subscribers = append(rr.Subscribers, ss.ledger)
			}
		}
		res.Runs = append(res.Runs, rr)
	}
	return res, nil
}
