package federation

import (
	"fmt"
	"net/http"
	"slices"
	"strings"

	"hetsched/internal/durable"
	"hetsched/internal/pollserve"
	"hetsched/internal/service"
)

// This file is the fleet side of live run migration: the router knows
// where every run should live (the ring) and drives the service
// layer's snapshot-ship-replay transfer to make reality match. Two
// entry points:
//
//	SetEpoch     planned rebalance — step the placement epoch and move
//	             every run whose owner changed, source still alive
//	RecoverHost  death path — a target crashed; scavenge its runs from
//	             its journal directory into their new ring owners
//
// Both hold the handoff lock, publish the moving-run set (polls on
// those runs answer 503 + Retry-After at the router until the handoff
// resolves), and swap the ring pointer only after the moves are done,
// so a poll is never routed to a host that does not yet — or no
// longer — own its run.

// move is one planned run relocation.
type move struct {
	id       string
	src, dst int
}

// SetEpoch steps the placement epoch: it builds the ring the fleet
// should converge on, migrates every run whose owner moved (snapshot-
// ship-replay, exactly-once — a run whose transfer fails stays on its
// source and is reported in the returned error), and then atomically
// publishes the new ring. Polls for moving runs answer 503 +
// Retry-After during the handoff; polls for everything else are
// untouched. A no-op when the epoch already matches.
func (rt *Router) SetEpoch(epoch uint64) error {
	rt.handoffMu.Lock()
	defer rt.handoffMu.Unlock()
	cur := rt.ring.Load()
	if cur.Epoch() == epoch {
		return nil
	}
	next, err := NewRing(cur.Hosts(), cur.Vnodes(), epoch)
	if err != nil {
		return err
	}
	moves, err := rt.plan(next)
	if err != nil {
		return err
	}
	return rt.handoff(next, moves)
}

// plan enumerates every run the fleet holds and returns the ones whose
// owner under next differs from the target currently holding them.
// Expired runs stay behind: they are deleted or timed out, and the
// sweep removes them from their host. Hosts marked down hold nothing
// reachable (their runs come back via RecoverHost); an unreachable live
// host is an error — rebalancing around a host we cannot export from
// would strand its runs behind a ring that routes elsewhere.
func (rt *Router) plan(next *Ring) ([]move, error) {
	down := rt.down.Load()
	var moves []move
	for i, p := range rt.peers {
		if down&(1<<uint(i)) != 0 {
			continue
		}
		infos, err := p.runs()
		if err != nil {
			return nil, fmt.Errorf("federation: listing runs on %q: %w", rt.targets[i].Name, err)
		}
		for _, info := range infos {
			if info.State == service.StateExpired {
				continue
			}
			if dst := ownerOn(next, info.ID, down); dst != i {
				moves = append(moves, move{id: info.ID, src: i, dst: dst})
			}
		}
	}
	return moves, nil
}

// ownerOn is OwnerLive on an arbitrary ring (the live one, or the next
// during a handoff, before it is published).
func ownerOn(r *Ring, id string, down uint64) int {
	if down != 0 {
		return r.OwnerLive(id, down)
	}
	return r.Owner(id)
}

// handoff executes a planned set of moves under the published
// moving-run set, then swaps the ring. Failed moves leave their runs
// on the source (the service layer aborted and unfenced); they stay
// routable through the override table and are collected into the
// returned error, but do not block the ring swap — the epoch has been
// decided, and a stranded run is at least still being served by a live
// host that the next SetEpoch or an operator retry can move.
func (rt *Router) handoff(next *Ring, moves []move) error {
	defer rt.publishMoving(moves)()
	var errs []string
	stranded := make(map[string]int32)
	for _, mv := range moves {
		if err := rt.migrate(mv); err != nil {
			stranded[mv.id] = int32(mv.src)
			errs = append(errs, fmt.Sprintf("%s: %v", mv.id, err))
		}
	}
	// The fleet now matches the new ring (plan enumerated actual
	// placement, holders included runs parked in the override table), so
	// the table resets to just the strandings.
	rt.setOverrides(stranded)
	rt.ring.Store(next)
	if len(errs) > 0 {
		return fmt.Errorf("federation: %d of %d migrations failed: %s", len(errs), len(moves), strings.Join(errs, "; "))
	}
	return nil
}

// MigrateRun moves one run to the named target and records the
// placement in the override table, so the router keeps routing its
// polls correctly even though the ring disagrees — the explicit-move
// primitive (drain a host, chase data locality) under the same fence
// and 503 handoff window as a rebalance. The next SetEpoch or
// RecoverHost reconciles the run back onto the ring.
func (rt *Router) MigrateRun(id, dstName string) error {
	rt.handoffMu.Lock()
	defer rt.handoffMu.Unlock()
	di, err := rt.targetIndex(dstName)
	if err != nil {
		return err
	}
	src := rt.owner(id)
	if src == di {
		return nil
	}
	defer rt.publishMoving([]move{{id: id}})()
	if err := rt.migrate(move{id: id, src: src, dst: di}); err != nil {
		return err
	}
	next := make(map[string]int32)
	if old := rt.overrides.Load(); old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	if ownerOn(rt.ring.Load(), id, rt.down.Load()) == di {
		// The ring already places the run there.
		delete(next, id)
	} else {
		next[id] = int32(di)
	}
	rt.setOverrides(next)
	return nil
}

// publishMoving marks the runs of moves mid-handoff, so that the router
// answers their polls with 503 + Retry-After, until the returned func
// clears the set.
func (rt *Router) publishMoving(moves []move) (clear func()) {
	if len(moves) == 0 {
		return func() {}
	}
	m := make(map[string]bool, len(moves))
	for _, mv := range moves {
		m[mv.id] = true
	}
	rt.moving.Store(&m)
	return func() { rt.moving.Store(nil) }
}

// setOverrides publishes the override table: nil when empty, so the
// steady path pays one nil check.
func (rt *Router) setOverrides(m map[string]int32) {
	if len(m) == 0 {
		rt.overrides.Store(nil)
		return
	}
	rt.overrides.Store(&m)
}

// migrate moves one run between targets: the source's peer runs the
// migration and the destination's peer imports the stream.
func (rt *Router) migrate(mv move) error {
	return rt.peers[mv.src].migrate(mv.id, rt.peers[mv.dst])
}

// MarkDown flags the named target as dead: placement steers around it
// (OwnerLive) from then on. Returns the target's index.
func (rt *Router) MarkDown(name string) (int, error) {
	i, err := rt.targetIndex(name)
	if err != nil {
		return 0, err
	}
	return i, rt.markDown(i)
}

// markDown sets target i's bit in the down mask.
func (rt *Router) markDown(i int) error {
	if i >= 64 {
		return fmt.Errorf("federation: down-mask supports 64 targets, %q is index %d", rt.targets[i].Name, i)
	}
	rt.down.Or(1 << uint(i))
	return nil
}

func (rt *Router) targetIndex(name string) (int, error) {
	for i := range rt.targets {
		if rt.targets[i].Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("federation: unknown target %q", name)
}

// RecoverHost is the death path: the named target crashed, and its
// runs are rebuilt on their new ring owners from the journal directory
// the dead process left behind (Target.JournalDir) instead of being
// declared lost. The dead host is marked down first, so placement —
// including the recovered runs' new homes — steers around it; epoch
// optionally steps the ring in the same handoff (pass the current
// epoch to keep it). The directory is read back once
// (durable.ReadRuns: per run, the best snapshot and the contiguous
// journal tail above it), and each run ships to its owner as a
// transfer stream; runs the reader or the import refuses are reported
// in the error, not silently dropped. The source cannot fence or
// commit — it is dead — so exactly-once rests on the import refusing a
// duplicate id and on the dead host staying down-masked: if the
// process resurrects with its stale copy, the ring never routes a poll
// to it, and its TTL janitor sweeps the orphan.
func (rt *Router) RecoverHost(dead string, epoch uint64) error {
	rt.handoffMu.Lock()
	defer rt.handoffMu.Unlock()
	di, err := rt.targetIndex(dead)
	if err != nil {
		return err
	}
	dt := &rt.targets[di]
	if dt.JournalDir == "" {
		return fmt.Errorf("federation: target %q has no JournalDir to recover from", dead)
	}
	if err := rt.markDown(di); err != nil {
		return err
	}
	down := rt.down.Load()
	cur := rt.ring.Load()
	next := cur
	if cur.Epoch() != epoch {
		if next, err = NewRing(cur.Hosts(), cur.Vnodes(), epoch); err != nil {
			return err
		}
	}
	runs, err := durable.ReadRuns(dt.JournalDir)
	if err != nil {
		return fmt.Errorf("federation: scanning %q journal: %w", dead, err)
	}
	// Everything the dead host owed moves, and if the epoch stepped,
	// live hosts' runs may move too — fold both into one handoff.
	var moves []move
	for _, r := range runs {
		moves = append(moves, move{id: r.ID, src: di, dst: ownerOn(next, r.ID, down)})
	}
	liveMoves := []move(nil)
	if next != cur {
		if liveMoves, err = rt.plan(next); err != nil {
			return err
		}
	}
	defer rt.publishMoving(slices.Concat(moves, liveMoves))()
	var errs []string
	for i, mv := range moves {
		err := runs[i].Err
		if err == nil {
			err = rt.peers[mv.dst].importRun(durable.AppendTransfer(nil, runs[i].Snap, runs[i].Tail))
		}
		if err != nil {
			// The source is dead, so there is nowhere to strand the run:
			// it stays on disk in the dead journal dir for a retry.
			errs = append(errs, fmt.Sprintf("%s: %v", mv.id, err))
		}
	}
	stranded := make(map[string]int32)
	if next == cur {
		// No rebalance ran, so existing explicit-move overrides still
		// describe where their runs physically sit — preserve them,
		// except for runs just scavenged off the corpse.
		if old := rt.overrides.Load(); old != nil {
			scavenged := make(map[string]bool, len(moves))
			for _, mv := range moves {
				scavenged[mv.id] = true
			}
			for id, t := range *old {
				if !scavenged[id] {
					stranded[id] = t
				}
			}
		}
	}
	for _, mv := range liveMoves {
		if err := rt.migrate(mv); err != nil {
			stranded[mv.id] = int32(mv.src)
			errs = append(errs, fmt.Sprintf("%s: %v", mv.id, err))
		}
	}
	rt.setOverrides(stranded)
	rt.ring.Store(next)
	if len(errs) > 0 {
		return fmt.Errorf("federation: recovering %q: %d runs failed: %s", dead, len(errs), strings.Join(errs, "; "))
	}
	return nil
}

// RingStatus is the admin view of the router's placement state.
type RingStatus struct {
	Epoch  uint64   `json:"epoch"`
	Vnodes int      `json:"vnodes"`
	Hosts  []string `json:"hosts"`
	Down   []string `json:"down,omitempty"`
	// Upstream has one row per URL target, in target order (GET /v1/ring
	// only; absent in direct mode).
	Upstream []UpstreamStatus `json:"upstream,omitempty"`
	// LoopPolls is the polls the router's request loop answered since
	// the router started, forwarded or refused, without net/http (GET
	// /v1/ring only). Dials + Reuses growing faster than it means a
	// client's request heads are sending its polls down the net/http
	// path.
	LoopPolls uint64 `json:"loop_polls,omitempty"`
}

// UpstreamStatus counts what the router's hop to one URL target has
// done since the router started. Every forwarded request takes one
// connection, so Dials + Reuses is the requests that reached the wire.
type UpstreamStatus struct {
	Host string `json:"host"`
	// Dials is connections opened, Reuses requests sent on a pooled
	// one, Stale pooled connections found closed by the host and
	// discarded before anything was written to them.
	Dials  uint64 `json:"dials"`
	Reuses uint64 `json:"reuses"`
	Stale  uint64 `json:"stale"`
	// Failures is requests the router answered itself with 503 "host
	// unreachable": a refused dial, a connection lost or a response
	// head not understood after the request was written.
	Failures uint64 `json:"failures"`
}

// handleRing serves GET /v1/ring: the current placement parameters and
// the per-host counters of the upstream hop.
func (rt *Router) handleRing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errJSON(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	ring := rt.ring.Load()
	st := RingStatus{Epoch: ring.Epoch(), Vnodes: ring.Vnodes(), Hosts: ring.Hosts(), LoopPolls: rt.loopPolls.Load()}
	mask := rt.down.Load()
	for i, p := range rt.peers {
		if i < 64 && mask&(1<<uint(i)) != 0 {
			st.Down = append(st.Down, rt.targets[i].Name)
		}
		st.Upstream = p.status(st.Upstream)
	}
	writeJSON(w, http.StatusOK, st)
}

// handleRingEpoch serves POST /v1/ring/epoch {"epoch": N}: step the
// placement epoch and rebalance the fleet (SetEpoch). The response
// reports the resulting ring; a partial failure is a 502 with the
// stranded runs named.
func (rt *Router) handleRingEpoch(w http.ResponseWriter, r *http.Request) {
	var q struct {
		Epoch uint64 `json:"epoch"`
	}
	if !rt.decodeAdmin(w, r, &q) {
		return
	}
	if err := rt.SetEpoch(q.Epoch); err != nil {
		errJSON(w, http.StatusBadGateway, err.Error())
		return
	}
	ring := rt.ring.Load()
	writeJSON(w, http.StatusOK, RingStatus{Epoch: ring.Epoch(), Vnodes: ring.Vnodes(), Hosts: ring.Hosts()})
}

// handleRingRecover serves POST /v1/ring/recover {"host": name,
// "epoch": N}: declare a target dead and scavenge its runs from its
// journal directory into the fleet under the given epoch (RecoverHost).
func (rt *Router) handleRingRecover(w http.ResponseWriter, r *http.Request) {
	var q struct {
		Host  string `json:"host"`
		Epoch uint64 `json:"epoch"`
	}
	if !rt.decodeAdmin(w, r, &q) {
		return
	}
	if err := rt.RecoverHost(q.Host, q.Epoch); err != nil {
		errJSON(w, http.StatusBadGateway, err.Error())
		return
	}
	ring := rt.ring.Load()
	writeJSON(w, http.StatusOK, RingStatus{Epoch: ring.Epoch(), Vnodes: ring.Vnodes(), Hosts: ring.Hosts()})
}

func (rt *Router) decodeAdmin(w http.ResponseWriter, r *http.Request, out any) bool {
	if r.Method != http.MethodPost {
		errJSON(w, http.StatusMethodNotAllowed, "method not allowed")
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, pollserve.MaxBody)
	if err := service.DecodeStrict(r.Body, out); err != nil {
		errJSON(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return false
	}
	return true
}
