package service

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetsched/internal/durable"
	"hetsched/internal/events"
	"hetsched/internal/rng"
)

// Run is one registered scheduling run: immutable metadata plus the
// mutable Host. The expired flag is the only state the registry owns;
// everything else (created/draining/complete) derives from the Host.
type Run struct {
	ID       string
	Kernel   string
	Strategy string
	N, P     int
	Seed     uint64
	Beta     float64
	Created  time.Time

	Host    *Host
	expired atomic.Bool
}

// State returns the run's lifecycle state.
func (r *Run) State() string {
	if r.expired.Load() {
		return StateExpired
	}
	return r.Host.State()
}

// Expire marks the run expired: subsequent API calls answer 410 Gone
// and the next sweep removes it. Reports whether this call flipped it.
func (r *Run) Expire() bool {
	return r.expired.CompareAndSwap(false, true)
}

// Expired reports whether the run has been expired.
func (r *Run) Expired() bool { return r.expired.Load() }

// Info assembles the run's RunInfo.
func (r *Run) Info() RunInfo {
	return RunInfo{
		ID:           r.ID,
		Kernel:       r.Kernel,
		Strategy:     r.Strategy,
		N:            r.N,
		P:            r.P,
		Seed:         r.Seed,
		Beta:         r.Beta,
		Batch:        r.Host.Batch(),
		LeaseSeconds: r.Host.Lease().Seconds(),
		Total:        r.Host.Total(),
		State:        r.State(),
		Created:      r.Created,
	}
}

// Registry is the in-memory run table: one map under one RWMutex.
// TTL-based garbage collection removes expired runs and runs idle for
// longer than the TTL.
type Registry struct {
	mu   sync.RWMutex
	runs map[string]*Run
	ttl  time.Duration
	now  func() time.Time
	// bus, when attached, is told about each run the sweep collects so
	// its event stream can emit a final run_swept and release
	// subscribers. Publishing happens outside the table lock.
	bus *events.Bus
	// jr, when attached, receives the registry-level mutation records:
	// the create (with its resolved request as payload), the expiry and
	// the final sweep of each run. The per-poll records are the Host's
	// business (see host.go); the registry only journals lifecycle.
	jr *durable.Log

	seq   atomic.Uint64
	idmu  sync.Mutex
	idrng *rng.PCG

	// tombs records runs that migrated away from this host, so a stale
	// worker's lookup answers a deterministic 410 ("migrated") instead
	// of 404. An entry is cleared if the run migrates back. Off the hot
	// path: lookups consult it only after the run table missed.
	tombMu sync.Mutex
	tombs  map[string]bool
}

// NewRegistry builds a registry with the given idle TTL (0 disables
// time-based expiry; explicit Expire still works) on the time source
// now: the TTL sweep's idleness comparisons use it instead of the wall
// clock, mirroring the Host's virtual-clock contract, so a harness that
// owns every run's clock (internal/cluster) also owns the janitor's
// notion of "idle". Run IDs stay wall-clock-salted — they are opaque
// identifiers, deliberately outside the deterministic surface.
func NewRegistry(ttl time.Duration, now func() time.Time) *Registry {
	return &Registry{
		runs:  make(map[string]*Run),
		ttl:   ttl,
		now:   now,
		idrng: rng.New(uint64(time.Now().UnixNano())),
	}
}

// AttachBus wires the registry to an event bus: every run Sweep
// collects gets a terminal run_swept event and its stream is closed.
// Call before serving traffic.
func (g *Registry) AttachBus(b *events.Bus) { g.bus = b }

// AttachJournal wires the registry (and every run it subsequently
// creates) to the write-ahead journal. Call before serving traffic.
func (g *Registry) AttachJournal(jr *durable.Log) { g.jr = jr }

// newID returns a fresh run identifier: a monotone sequence number
// plus a random suffix so IDs are not guessable across restarts.
func (g *Registry) newID() string {
	g.idmu.Lock()
	suffix := g.idrng.Uint64()
	g.idmu.Unlock()
	return fmt.Sprintf("r%04x-%08x", g.seq.Add(1), uint32(suffix))
}

// Add registers run under its ID.
func (g *Registry) Add(run *Run) {
	g.mu.Lock()
	g.runs[run.ID] = run
	g.mu.Unlock()
}

// addNew registers run under its ID unless one is already present,
// reporting whether it was added. Pinned IDs (CreateRunRequest.ID) go
// through it so a duplicate answers 409 instead of silently replacing
// the original run.
//
// When a journal is attached, the create record is appended and
// committed while the table lock is still held, before the run becomes
// reachable: a worker can only learn the run exists after its create
// is durable, so no journaled poll record can ever precede its run's
// create record — the invariant replay depends on. A duplicate ID
// journals nothing (no ghost runs on 409). A commit failure refuses the
// registration (the caller answers 5xx): the run must not be visible
// while its create is not durable. The failed frame stays in the
// group-commit buffer, so a later successful commit can still land it —
// a restart may then resurrect the refused run as an idle one, which
// the TTL sweep collects; durable-before-visible is never violated.
func (g *Registry) addNew(run *Run) (bool, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.runs[run.ID]; ok {
		return false, nil
	}
	if g.jr != nil {
		run.Host.AttachJournal(g.jr, run.ID)
		run.Host.journalCreate(run.Created.UnixNano(), encodeCreateRecord(run))
		if err := g.jr.Commit(); err != nil {
			return false, err
		}
	}
	g.runs[run.ID] = run
	return true, nil
}

// AddRecovered registers an imported (migrated-in) run unless the ID
// is already present, reporting whether it was added. Nothing is
// journaled — the importer has already made the run durable by writing
// its snapshot — but a tombstone from an earlier migrate-away of the
// same run is cleared: the run is back.
func (g *Registry) AddRecovered(run *Run) bool {
	g.mu.Lock()
	if _, ok := g.runs[run.ID]; ok {
		g.mu.Unlock()
		return false
	}
	g.runs[run.ID] = run
	g.mu.Unlock()
	g.tombMu.Lock()
	delete(g.tombs, run.ID)
	g.tombMu.Unlock()
	return true
}

// MigrateOut removes the run and leaves a tombstone: subsequent
// lookups answer 410 ("migrated") instead of 404, so a stale worker
// that raced the handoff gets a deterministic rejection.
func (g *Registry) MigrateOut(id string) {
	g.tombMu.Lock()
	if g.tombs == nil {
		g.tombs = make(map[string]bool)
	}
	g.tombs[id] = true
	g.tombMu.Unlock()
	g.Remove(id)
}

// MigratedOut reports whether id was migrated away from this host.
func (g *Registry) MigratedOut(id string) bool {
	g.tombMu.Lock()
	defer g.tombMu.Unlock()
	return g.tombs[id]
}

// Get returns the run with the given ID.
func (g *Registry) Get(id string) (*Run, bool) {
	g.mu.RLock()
	run, ok := g.runs[id]
	g.mu.RUnlock()
	return run, ok
}

// Remove deletes the run with the given ID.
func (g *Registry) Remove(id string) {
	g.mu.Lock()
	delete(g.runs, id)
	g.mu.Unlock()
}

// Len returns the number of registered runs.
func (g *Registry) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.runs)
}

// Runs returns every registered run, ordered by creation time then ID
// for stable listings.
func (g *Registry) Runs() []*Run {
	out := g.list()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.Before(out[j].Created)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// list returns every registered run, in no order.
func (g *Registry) list() []*Run {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*Run, 0, len(g.runs))
	for _, run := range g.runs {
		out = append(out, run)
	}
	return out
}

// Sweep reclaims expired assignment leases on every live run, removes
// every expired run, and — when a TTL is configured — expires and
// removes runs whose last master interaction is older than the TTL. It
// returns the number of runs collected. The server's janitor goroutine
// calls it periodically; tests call it directly.
//
// Locking: per-run work (lease reclaim, LastActivity) takes each run's
// Host mutex, so it must not run under the table's write lock — one run
// stuck behind a long driver step would block every lookup. The table
// is therefore snapshotted under RLock, the Host-touching pass runs
// without the table lock, and only the final deletion of expired runs
// takes the write lock, re-checking each candidate in case it was
// concurrently removed.
func (g *Registry) Sweep() int {
	now := g.now()
	var expired []*Run
	for _, run := range g.list() {
		if !run.Expired() {
			// The janitor arm of lease reclamation: polls reclaim
			// opportunistically, but a run whose workers all died has
			// no polls left — this pass is what un-wedges it.
			run.Host.ReclaimExpired()
			if g.ttl > 0 && now.Sub(run.Host.LastActivity()) > g.ttl {
				if run.Expire() {
					run.Host.journalExpire(now.UnixNano())
				}
			}
		}
		if run.Expired() {
			expired = append(expired, run)
		}
	}
	if len(expired) == 0 {
		return 0
	}
	g.mu.Lock()
	removed := expired[:0]
	for _, run := range expired {
		if cur, ok := g.runs[run.ID]; ok && cur == run {
			delete(g.runs, run.ID)
			removed = append(removed, run)
		}
	}
	g.mu.Unlock()
	if g.jr != nil {
		for _, run := range removed {
			run.Host.journalSwept(now.UnixNano())
		}
		// No request to fail behind the janitor: a failed commit is
		// logged, and the frames stay buffered for the next commit.
		if err := g.jr.Commit(); err != nil {
			log.Printf("service: journaling sweep: %v", err)
		}
	}
	if g.bus != nil {
		for _, run := range removed {
			g.bus.Swept(run.ID, now.UnixNano())
		}
	}
	return len(removed)
}

// RecordExpire journals an explicit expiry (DELETE /v1/runs/{id}); the
// TTL path journals its own inside Sweep. Call only after run.Expire()
// reported the flip, so a double delete journals one record. A commit
// failure is returned so the handler can answer 5xx — the in-memory
// expiry stands, but the client must not believe it durable.
func (g *Registry) RecordExpire(run *Run) error {
	if g.jr == nil {
		return nil
	}
	run.Host.journalExpire(g.now().UnixNano())
	return g.jr.Commit()
}

// Checkpoint bounds recovery time: it seals the current journal
// generation, writes a fresh snapshot of every registered run, and
// prunes everything the snapshots supersede — sealed generations and
// older snapshots. A crash anywhere inside leaves recovery correct:
// until Prune commits the deletions, the old snapshot plus the sealed
// tail reconstruct the same state the new snapshot captures.
//
// A run swept between Rotate and the snapshot pass simply is not
// snapshotted, and Prune drops its records with the sealed
// generations; its MutSwept record in the live generation then belongs
// to a run with neither snapshot nor create, which durable.ReadRuns
// ignores.
func (g *Registry) Checkpoint() error {
	if g.jr == nil {
		return nil
	}
	sealed, err := g.jr.Rotate()
	if err != nil {
		return err
	}
	keep := make(map[string]uint64, g.Len())
	for _, run := range g.Runs() {
		s := run.snapshot()
		if err := g.jr.WriteSnapshot(s); err != nil {
			return err
		}
		keep[s.ID] = s.Mutations
	}
	return g.jr.Prune(sealed, keep)
}
