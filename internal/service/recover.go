package service

import (
	"fmt"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/durable"
)

// Recover rebuilds the registry from the journal directory: every run
// durable.ReadRuns reads back, in id order, is rebuilt and registered.
// The first run the reader or the rebuild refuses stops recovery,
// naming the run. It returns the number of runs live in the registry
// afterwards.
//
// Recovery is single-threaded and must complete before the registry
// serves traffic (Server.New enforces this, synchronously or behind
// the 503 recovering gate).
func (o Options) Recover(g *Registry, jr *durable.Log) (int, error) {
	now := o.Now
	if now == nil {
		now = time.Now
	}
	runs, err := durable.ReadRuns(jr.Dir())
	if err != nil {
		return 0, err
	}
	for _, sr := range runs {
		if sr.Err != nil {
			return 0, fmt.Errorf("service: run %q: %w", sr.ID, sr.Err)
		}
		run, err := rebuild(sr.Snap, sr.Tail, jr, now)
		if err != nil {
			return 0, err
		}
		g.Add(run)
		// The run rejoins the event plane, with no synthetic
		// run_created: the run is old, not new.
		if o.Events != nil {
			run.Host.AttachEvents(o.Events.Run(run.ID))
		}
	}
	return len(runs), nil
}

// rebuild reconstructs one run from what a journal directory or a
// transfer stream holds (durable.ReadRuns, durable.DecodeTransfer): the
// run restored from snap, or created from the MutCreate that opens a
// snapshot-less tail, then every further record replayed at its
// recorded instant through the code the live server runs. The driver is
// built from the journaled creation record, so a restarted daemon with
// other defaults still rebuilds the run as it was created. The run
// comes back live: journaling into jr, continuing the sequence where
// the tail ends, on the clock now.
func rebuild(snap *durable.RunSnapshot, tail []core.Mutation, jr *durable.Log, now func() time.Time) (*Run, error) {
	var payload []byte
	if snap != nil {
		payload = snap.Request
	} else {
		payload, tail = tail[0].Payload, tail[1:]
	}
	rec, err := decodeCreateRecord(payload)
	if err != nil {
		return nil, err
	}
	q := rec.request()
	drv, err := NewDriver(&q)
	if err != nil {
		return nil, fmt.Errorf("service: run %q: %w", rec.ID, err)
	}
	var h *Host
	if snap != nil {
		if h, err = restoreHost(drv, rec, snap); err != nil {
			return nil, err
		}
	} else {
		created := time.Unix(0, rec.CreatedNs)
		h = NewHostWithClock(drv, rec.Batch, rec.lease(), func() time.Time { return created })
		h.muts = 1
	}
	h.jr, h.runID, h.replay = jr, rec.ID, true
	run := &Run{
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
	if snap != nil && snap.Expired {
		run.Expire()
	}
	for _, m := range tail {
		switch m.Op {
		case core.MutPoll:
			if _, _, err := h.apply(m.TimeNs, int(m.Worker), m.Tasks); err != nil {
				return nil, fmt.Errorf("service: run %q: replaying poll %d: %w", rec.ID, m.Seq, err)
			}
		case core.MutReclaim:
			h.mu.Lock()
			h.reclaimLocked(time.Unix(0, m.TimeNs))
			h.mu.Unlock()
		case core.MutExpire:
			h.muts++
			run.Expire()
		default:
			return nil, fmt.Errorf("service: run %q: unexpected op %v at record %d", rec.ID, m.Op, m.Seq)
		}
		if h.muts != m.Seq {
			// A replayed reclaim that found nothing to reclaim: the live
			// pass mutated, so identical pre-state must too.
			return nil, fmt.Errorf("service: run %q: replay diverged at record %d (watermark %d)", rec.ID, m.Seq, h.muts)
		}
	}
	h.replay = false
	h.now = now
	return run, nil
}
