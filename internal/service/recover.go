package service

import (
	"fmt"
	"sort"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/durable"
)

// Recover rebuilds the registry from the journal directory: first every
// run's latest snapshot (driver rebuilt from the journaled creation
// record and handed its persisted state, then the host state restored
// around it), then the journal tail replayed — each
// record fed through the same apply path the live server uses, with its
// recorded timestamp. Records at or below a run's snapshot watermark
// are skipped; records for runs the durable state has already swept are
// ignored (see Registry.Checkpoint). It returns the number of runs
// live in the registry afterwards.
//
// Recovery is single-threaded and must complete before the registry
// serves traffic (Server.New enforces this, synchronously or behind
// the 503 recovering gate).
func (o Options) Recover(g *Registry, jr *durable.Log) (int, error) {
	now := o.Now
	if now == nil {
		now = time.Now
	}
	snaps, err := jr.LoadSnapshots()
	if err != nil {
		return 0, err
	}
	// Sorted IDs so recovery builds drivers (and draws their internal
	// RNG streams) in a deterministic order run to run.
	ids := make([]string, 0, len(snaps))
	for id := range snaps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		run, err := restoreRun(snaps[id], jr)
		if err != nil {
			return 0, fmt.Errorf("restoring run %q: %w", id, err)
		}
		g.Add(run)
	}
	err = jr.Replay(func(m core.Mutation) error {
		run, ok := g.Get(m.Run)
		if m.Op == core.MutCreate {
			if ok {
				return nil // superseded by the run's snapshot
			}
			rec, err := decodeCreateRecord(m.Payload)
			if err != nil {
				return err
			}
			run, err := replayCreate(rec, jr)
			if err != nil {
				return fmt.Errorf("replaying create of %q: %w", m.Run, err)
			}
			g.Add(run)
			return nil
		}
		if !ok {
			// The run's durable state was pruned after a sweep; its
			// trailing lifecycle records describe a corpse.
			return nil
		}
		h := run.Host
		if m.Seq <= h.muts {
			return nil // already inside the snapshot's watermark
		}
		if m.Seq != h.muts+1 {
			return fmt.Errorf("run %q: journal gap: record %d after watermark %d", m.Run, m.Seq, h.muts)
		}
		switch m.Op {
		case core.MutPoll:
			if _, _, err := h.apply(m.TimeNs, int(m.Worker), m.Tasks); err != nil {
				return fmt.Errorf("run %q: replaying poll %d: %w", m.Run, m.Seq, err)
			}
		case core.MutReclaim:
			h.applyReclaim(m.TimeNs)
		case core.MutExpire:
			h.muts = m.Seq
			run.Expire()
		case core.MutSwept:
			h.muts = m.Seq
			run.Expire()
			g.Remove(m.Run)
			return nil
		default:
			return fmt.Errorf("run %q: unexpected journal op %v", m.Run, m.Op)
		}
		if h.muts != m.Seq {
			// A replayed reclaim that found nothing to reclaim: the live
			// pass mutated, so identical pre-state must too.
			return fmt.Errorf("run %q: replay diverged at record %d (watermark %d)", m.Run, m.Seq, h.muts)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	// Flip every recovered run live: journal appends resume, the clock
	// becomes the server's, and the run rejoins the event plane (no
	// synthetic run_created — the run is old, not new).
	runs := g.Runs()
	for _, run := range runs {
		run.Host.finishRecovery(now)
		if o.Events != nil {
			run.Host.AttachEvents(o.Events.Run(run.ID))
		}
	}
	return len(runs), nil
}

// restoreRun rebuilds one run from its snapshot.
func restoreRun(s *durable.RunSnapshot, jr *durable.Log) (*Run, error) {
	rec, err := decodeCreateRecord(s.Request)
	if err != nil {
		return nil, err
	}
	q := rec.request()
	drv, err := NewDriver(&q)
	if err != nil {
		return nil, err
	}
	sn, ok := drv.(core.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("service: driver %s has no state codec", drv.Name())
	}
	if err := sn.RestoreState(s.Driver); err != nil {
		return nil, fmt.Errorf("service: driver state of %q: %w", s.ID, err)
	}
	h, err := restoreHost(drv, rec, s, jr)
	if err != nil {
		return nil, err
	}
	run := runFromRecord(rec, h)
	if s.Expired {
		run.Expire()
	}
	return run, nil
}

// replayCreate rebuilds a run that has no snapshot yet from its
// journaled creation record alone; the tail replay then feeds it every
// poll it ever served. The host starts in replay mode with the create
// holding sequence 1, exactly as AddNew journaled it.
func replayCreate(rec createRecord, jr *durable.Log) (*Run, error) {
	q := rec.request()
	drv, err := NewDriver(&q)
	if err != nil {
		return nil, err
	}
	created := time.Unix(0, rec.CreatedNs)
	h := NewHostWithClock(drv, rec.Batch, rec.lease(), func() time.Time { return created })
	h.jr = jr
	h.runID = rec.ID
	h.replay = true
	h.muts = 1
	return runFromRecord(rec, h), nil
}

func runFromRecord(rec createRecord, h *Host) *Run {
	return &Run{
		ID:       rec.ID,
		Kernel:   rec.Kernel,
		Strategy: rec.Strategy,
		N:        rec.N,
		P:        rec.P,
		Seed:     rec.Seed,
		Beta:     rec.Beta,
		Created:  time.Unix(0, rec.CreatedNs),
		Host:     h,
	}
}
