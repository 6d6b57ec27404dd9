package cluster

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/federation"
	"hetsched/internal/service"
	"hetsched/internal/trace"
)

// RunResult is one run's collected outcome.
type RunResult struct {
	Spec RunSpec
	Info service.RunInfo
	// Stats and Trace are the service's own collectors, snapshotted
	// after the scenario (virtual timestamps throughout).
	Stats service.StatsResponse
	Trace *trace.Trace
	// Accepted counts how many times each task's completion report was
	// accepted by the master — the harness-side exactly-once ledger,
	// independent of the service's own counters.
	Accepted map[core.Task]int
	// Conflicts counts 409 lease-expired answers workers absorbed.
	Conflicts int
	// BusyNanos is the per-worker virtual execution time (on the event
	// loop's nanosecond grid) of batches whose completion the master
	// accepted.
	BusyNanos []int64
	// InitialSpeeds is the fleet's drawn speed vector (pre-drift).
	InitialSpeeds []float64
	// Arrived is false when the scenario ended before the run's
	// arrival instant.
	Arrived bool
	// HostIdx is the index of the host that served the run — always 0
	// on a single host, -1 if the run never arrived. The placement
	// invariant asserts it equals the run's effective ring owner.
	HostIdx int
	// Lost reports the run's host crashed mid-run (HostCrash event):
	// its fleet retired as polls discovered the outage, and no final
	// stats or trace could be collected.
	Lost bool
	// Subscribers are the scripted event-bus observers' ledgers, in
	// Scenario.Subscribers order. Deliberately excluded from Hash():
	// observers must not perturb the outcome, and the 0-vs-N identity
	// test relies on the exclusion.
	Subscribers []SubscriberLedger

	maxFactor float64
}

// Result is one executed scenario.
type Result struct {
	Scenario Scenario
	Mode     Mode
	Runs     []RunResult
	// Events and Polls size the executed schedule; FinalVirtual is the
	// virtual instant of the last processed event. (Observer-plane
	// events count toward none of these.)
	Events, Polls int
	FinalVirtual  time.Duration
	// BusPublished and BusDropped snapshot the event bus at collection:
	// the raw material of the subscriber conservation law. Federated
	// scenarios sum across every host's bus.
	BusPublished, BusDropped uint64
	// Hosts is the topology size, max(1, Scenario.Hosts).
	Hosts int
	// RouterRuns is the sorted run-id set visible through the router at
	// collection (its list endpoint in HTTP mode, the live hosts'
	// registries in direct mode); HostRuns[h] is host h's own registry
	// view (nil for a crashed host). A single host is a one-host
	// federation and fills both.
	RouterRuns []string
	HostRuns   [][]string
}

// CheckInvariants asserts everything a finished scenario must satisfy
// regardless of its fault script, returning the first violation:
//
//   - every run arrived, completed, and drained (no wedge survived);
//   - exactly-once accounting: every task's completion accepted exactly
//     once (harness ledger) and assigned = completed + reclaimed with
//     consistent per-worker splits (service counters);
//   - lease bookkeeping: conflicts imply reclaims, and the echoed lease
//     matches the spec;
//   - trace sanity: segments are closed, per-worker monotone, and sum
//     to the assignment counters;
//   - the virtual makespan respects the analysis lower bounds: total
//     work over the fleet's maximum achievable speed (valid under
//     drift, whose clamp bounds the climb at 4×), each worker's
//     accepted busy time, and — for crash-free flat runs — the
//     a-posteriori communication lower bound of internal/analysis;
//   - every subscriber ledger is consistent with the stats: seen +
//     dropped == published (the bus's conservation law), and loss-free
//     full-stream observers witnessed exactly the counters — one
//     completion event per task, assignment counts summing to
//     Assigned, reclaim and conflict events matching the ledgers;
//   - placement, on every topology (a single host is a one-host
//     federation): see checkPlacement.
func (res *Result) CheckInvariants() error {
	for i := range res.Runs {
		rr := &res.Runs[i]
		if rr.Lost {
			// A lost run's host died under it: no final stats or trace
			// exist, but the partial ledger must still be sane.
			if err := rr.checkLost(); err != nil {
				return fmt.Errorf("run %d (lost, %s/%s): %w", i, rr.Spec.Kernel, rr.Spec.Strategy, err)
			}
			for j := range rr.Subscribers {
				l := &rr.Subscribers[j]
				if l.Seen+l.Dropped != l.Published {
					return fmt.Errorf("run %d (lost) subscriber %d: seen %d + dropped %d != published %d",
						i, j, l.Seen, l.Dropped, l.Published)
				}
			}
			continue
		}
		if err := rr.check(); err != nil {
			return fmt.Errorf("run %d (%s/%s n=%d p=%d): %w",
				i, rr.Spec.Kernel, rr.Spec.Strategy, rr.Spec.N, rr.Spec.P, err)
		}
		for j := range rr.Subscribers {
			if err := rr.checkLedger(&rr.Subscribers[j]); err != nil {
				return fmt.Errorf("run %d subscriber %d: %w", i, j, err)
			}
		}
	}
	if err := res.checkPlacement(); err != nil {
		return fmt.Errorf("placement: %w", err)
	}
	return nil
}

// checkLost asserts the partial ledger of a run whose host crashed:
// the run must have arrived (the harness refuses to create runs on a
// dead host), and whatever completions the master accepted before
// dying must still be exactly-once and within the workload size.
func (rr *RunResult) checkLost() error {
	if !rr.Arrived {
		return fmt.Errorf("lost but never arrived")
	}
	if rr.Info.Total > 0 && len(rr.Accepted) > rr.Info.Total {
		return fmt.Errorf("%d distinct tasks accepted, workload has only %d", len(rr.Accepted), rr.Info.Total)
	}
	for t, times := range rr.Accepted {
		if times != 1 {
			return fmt.Errorf("task %d accepted %d times", t, times)
		}
	}
	return nil
}

// expectedOwners replays the scenario's placement-plane script —
// HostCrash, Migrate, RingChange — against the consistent-hash ring,
// reproducing the router's own rules (explicit-move overrides first,
// then the live-owner walk around scavenged corpses) to compute where
// every created run must sit when the scenario ends, keyed by the id
// the service echoed (a pinned RunID, or the one minted for it).
func (res *Result) expectedOwners() (map[string]int, error) {
	sc := res.Scenario
	names := federation.HostNames(res.Hosts)
	ring, err := federation.NewRing(names, 0, sc.RingEpoch)
	if err != nil {
		return nil, err
	}
	owners := make(map[string]int, len(res.Runs))
	for i := range res.Runs {
		if id := res.Runs[i].Info.ID; id != "" {
			owners[id] = ring.Owner(id)
		}
	}
	var down uint64
	crashed := make([]bool, res.Hosts)
	scavenged := make([]bool, res.Hosts)
	for _, e := range sc.Events {
		switch e.Kind {
		case HostCrash:
			crashed[e.Host] = true
		case Migrate:
			if id := res.Runs[e.Run].Info.ID; id != "" {
				owners[id] = e.Host
			}
		case RingChange:
			// All newly-dead hosts go down before any run is re-placed,
			// mirroring the backend's scavenge order.
			newly := make([]bool, res.Hosts)
			for h := range crashed {
				if crashed[h] && !scavenged[h] {
					down |= 1 << uint(h)
					scavenged[h], newly[h] = true, true
				}
			}
			stepped := e.Epoch != ring.Epoch()
			if stepped {
				if ring, err = federation.NewRing(names, 0, e.Epoch); err != nil {
					return nil, err
				}
			}
			for id, h := range owners {
				// An epoch step rebalances every run; a same-epoch
				// scavenge moves only the corpses' runs.
				if stepped || newly[h] {
					owners[id] = ring.OwnerLive(id, down)
				}
			}
		}
	}
	return owners, nil
}

// checkPlacement asserts the topology invariants: every run is held
// only by its effective owner — the consistent-hash ring owner,
// adjusted for every scripted migration, ring-epoch step and crash
// scavenge — no run appears on two hosts, and the router's
// fleet-wide view is exactly the union of the live hosts' registries.
func (res *Result) checkPlacement() error {
	expected, err := res.expectedOwners()
	if err != nil {
		return err
	}
	if len(res.HostRuns) != res.Hosts {
		return fmt.Errorf("%d per-host views for %d hosts", len(res.HostRuns), res.Hosts)
	}
	seen := make(map[string]int)
	union := make([]string, 0, len(res.RouterRuns))
	for h, ids := range res.HostRuns {
		for _, id := range ids {
			if owner, ok := expected[id]; !ok {
				return fmt.Errorf("run %q held by host %d but scripted nowhere", id, h)
			} else if owner != h {
				return fmt.Errorf("run %q held by host %d, effective owner is %d", id, h, owner)
			}
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("run %q held by both host %d and host %d", id, prev, h)
			}
			seen[id] = h
			union = append(union, id)
		}
	}
	sort.Strings(union)
	if len(union) != len(res.RouterRuns) {
		return fmt.Errorf("router lists %d runs, live hosts hold %d", len(res.RouterRuns), len(union))
	}
	for i, id := range union {
		if res.RouterRuns[i] != id {
			return fmt.Errorf("router view diverges at %d: %q vs union %q", i, res.RouterRuns[i], id)
		}
	}
	// Every surviving run must actually be on its owner (unless the
	// scenario armed the TTL, which may have swept it by collection).
	if res.Scenario.TTL <= 0 {
		for i := range res.Runs {
			rr := &res.Runs[i]
			if !rr.Arrived || rr.Lost {
				continue
			}
			if h, ok := seen[rr.Info.ID]; !ok {
				return fmt.Errorf("run %q (index %d) missing from every live host", rr.Info.ID, i)
			} else if h != rr.HostIdx {
				return fmt.Errorf("run %q served by host %d but held by host %d", rr.Info.ID, rr.HostIdx, h)
			}
		}
	}
	return nil
}

func (rr *RunResult) check() error {
	if !rr.Arrived {
		return fmt.Errorf("never arrived (scenario ended at its deadline?)")
	}
	st := rr.Stats

	// Completion: the run drained before the deadline.
	if st.State != service.StateComplete {
		return fmt.Errorf("wedged: state=%s outstanding=%d remaining=%d completed=%d/%d",
			st.State, st.Outstanding, st.Remaining, st.Completed, st.Total)
	}
	if st.Outstanding != 0 || st.Remaining != 0 || st.Completed != st.Total {
		return fmt.Errorf("complete but outstanding=%d remaining=%d completed=%d/%d",
			st.Outstanding, st.Remaining, st.Completed, st.Total)
	}

	// Exactly-once, from the harness's own ledger.
	if len(rr.Accepted) != st.Total {
		return fmt.Errorf("%d distinct tasks accepted, want %d", len(rr.Accepted), st.Total)
	}
	for t, times := range rr.Accepted {
		if times != 1 {
			return fmt.Errorf("task %d accepted %d times", t, times)
		}
	}

	// Lease/reclaim bookkeeping, from the service's counters.
	if st.Assigned != st.Completed+st.Reclaimed {
		return fmt.Errorf("assigned=%d != completed=%d + reclaimed=%d", st.Assigned, st.Completed, st.Reclaimed)
	}
	var wTasks, wBlocks, wReqs, wRecl int
	for _, ws := range st.Workers {
		wTasks += ws.Tasks
		wBlocks += ws.Blocks
		wReqs += ws.Requests
		wRecl += ws.Reclaimed
	}
	if wTasks != st.Completed || wRecl != st.Reclaimed || wReqs != st.Requests || wBlocks != st.Blocks {
		return fmt.Errorf("per-worker sums (tasks=%d blocks=%d requests=%d reclaimed=%d) disagree with totals (%d/%d/%d/%d)",
			wTasks, wBlocks, wReqs, wRecl, st.Completed, st.Blocks, st.Requests, st.Reclaimed)
	}
	if rr.Conflicts > 0 && st.Reclaimed == 0 {
		return fmt.Errorf("%d lease conflicts answered but no task reclaimed", rr.Conflicts)
	}
	if want := leaseDuration(rr.Spec.LeaseSeconds).Seconds(); st.LeaseSeconds != want {
		return fmt.Errorf("echoed lease %g s, want %g", st.LeaseSeconds, want)
	}

	// Trace sanity: closed, per-worker monotone segments that sum to
	// the assignment counters.
	if rr.Trace == nil {
		return fmt.Errorf("no trace collected")
	}
	lastStart := make([]float64, rr.Trace.P)
	for i := range lastStart {
		lastStart[i] = -1
	}
	segTasks, segBlocks := 0, 0
	for i, seg := range rr.Trace.Segments {
		if seg.Start < 0 || seg.End < seg.Start {
			return fmt.Errorf("trace segment %d not monotone: [%g, %g]", i, seg.Start, seg.End)
		}
		if seg.Start < lastStart[seg.Proc] {
			return fmt.Errorf("trace segment %d of worker %d starts at %g before previous start %g",
				i, seg.Proc, seg.Start, lastStart[seg.Proc])
		}
		lastStart[seg.Proc] = seg.Start
		segTasks += seg.Tasks
		segBlocks += seg.Blocks
	}
	if segTasks != st.Assigned {
		return fmt.Errorf("trace accounts %d tasks, assigned %d", segTasks, st.Assigned)
	}
	if segBlocks > st.Blocks {
		return fmt.Errorf("trace accounts %d blocks, shipped %d", segBlocks, st.Blocks)
	}

	// Makespan lower bounds. Total work over the maximum achievable
	// aggregate speed is a hard floor no schedule can beat; drift's
	// clamp (≤ 4× initial) keeps it valid for the dyn.x fleets. The
	// loop schedules on a truncated nanosecond grid, so each executed
	// batch may run up to 1ns short of its exact float duration — the
	// slack term absorbs that.
	slack := 2e-9 * float64(st.Requests+1)
	sumSpeed := 0.0
	for _, s := range rr.InitialSpeeds {
		sumSpeed += s
	}
	k := service.LookupKernel(rr.Spec.Kernel)
	if work := k.TotalWork(rr.Spec.N); work > 0 && sumSpeed > 0 {
		lb := work/(sumSpeed*rr.maxFactor) - slack
		if st.MakespanSeconds < lb {
			return fmt.Errorf("makespan %g s beats the work bound %g s", st.MakespanSeconds, lb)
		}
	}
	makespanNs := int64(math.Round(st.MakespanSeconds * 1e9))
	for w, busy := range rr.BusyNanos {
		if makespanNs+1 < busy {
			return fmt.Errorf("makespan %d ns beats worker %d's accepted busy time %d ns", makespanNs, w, busy)
		}
	}

	// Crash-free flat runs must also respect the a-posteriori
	// communication lower bound (a reclaimed flat task is re-granted
	// with no block charge — the original shipment went to the dead
	// worker — so the bound only binds when nothing was reclaimed).
	if k.Flat != nil && st.Reclaimed == 0 {
		tasksPer := make([]int, len(st.Workers))
		for i, ws := range st.Workers {
			tasksPer[i] = ws.Tasks
		}
		if lb := k.Flat.APosterioriLB(tasksPer); lb > 0 && float64(st.Blocks)+1e-6 < lb {
			return fmt.Errorf("shipped %d blocks, below the a-posteriori lower bound %g", st.Blocks, lb)
		}
	}
	return nil
}

// Hash digests everything deterministic about the outcome — per-run
// counters, worker splits, virtual trace segments, the accepted-task
// ledger, conflicts, and the final virtual clock — into one FNV-1a
// value. Wall-clock-salted fields (run IDs, Created) are excluded, so
// equal seeds must produce equal hashes across repetitions and across
// the two harness modes.
func (res *Result) Hash() uint64 {
	h := fnv64{state: 14695981039346656037}
	h.str(res.Scenario.Name)
	h.i64(int64(res.FinalVirtual))
	for _, rr := range res.Runs {
		h.str(rr.Spec.Kernel)
		h.str(rr.Spec.Strategy)
		h.i64(int64(rr.Spec.N))
		h.i64(int64(rr.Spec.P))
		h.i64(int64(rr.Spec.Seed))
		h.i64(int64(rr.Conflicts))
		if res.Hosts > 1 {
			// Federated-only fields, gated so every single-host golden
			// hash predates-and-survives the federation layer unchanged.
			h.str(rr.Spec.RunID)
			h.i64(int64(rr.HostIdx))
			if rr.Lost {
				h.byte(1)
			} else {
				h.byte(0)
			}
		}
		if !rr.Arrived || rr.Lost {
			continue
		}
		st := rr.Stats
		h.str(st.State)
		for _, v := range []int{st.Total, st.Assigned, st.Completed, st.Outstanding,
			st.Remaining, st.Reclaimed, st.Blocks, st.Requests, st.Phase1Tasks} {
			h.i64(int64(v))
		}
		h.f64(st.MakespanSeconds)
		h.f64(st.ElapsedSeconds)
		h.f64(st.BatchTasks.Mean)
		h.f64(st.BatchTasks.Max)
		for _, ws := range st.Workers {
			h.i64(int64(ws.Worker))
			h.i64(int64(ws.Requests))
			h.i64(int64(ws.Tasks))
			h.i64(int64(ws.Blocks))
			h.i64(int64(ws.Reclaimed))
		}
		for _, seg := range rr.Trace.Segments {
			h.i64(int64(seg.Proc))
			h.f64(seg.Start)
			h.f64(seg.End)
			h.i64(int64(seg.Tasks))
			h.i64(int64(seg.Blocks))
		}
		tasks := make([]core.Task, 0, len(rr.Accepted))
		for t := range rr.Accepted {
			tasks = append(tasks, t)
		}
		sort.Slice(tasks, func(i, j int) bool { return tasks[i] < tasks[j] })
		for _, t := range tasks {
			h.i64(int64(t))
			h.i64(int64(rr.Accepted[t]))
		}
	}
	return h.state
}

// fnv64 is an inline FNV-1a accumulator (no hash/fnv allocation, no
// byte-slice churn).
type fnv64 struct{ state uint64 }

func (h *fnv64) byte(b byte) {
	h.state ^= uint64(b)
	h.state *= 1099511628211
}

func (h *fnv64) i64(v int64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *fnv64) f64(v float64) {
	// Bit-exact: JSON round trips float64 losslessly (shortest-form
	// encode, exact decode), so direct and HTTP modes hash identically.
	h.i64(int64(math.Float64bits(v)))
}

func (h *fnv64) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0xff)
}
