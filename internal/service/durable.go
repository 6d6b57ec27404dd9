package service

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/durable"
	"hetsched/internal/stats"
)

// This file is the service half of internal/durable: the canonical
// creation record journaled by MutCreate and the Host snapshot/restore
// pair. The journal appends themselves live on the mutation path
// (host.go, registry.go); rebuild in recover.go consumes all of this.

// createRecord is the canonical resolved creation payload: the
// validated request with every server-side default already applied
// (strategy, batch, lease), plus the creation instant. Journaling the
// resolved values — not the wire request — means a restarted daemon
// with different -batch/-lease defaults still rebuilds the run
// exactly as it was created.
type createRecord struct {
	ID       string  `json:"id"`
	Kernel   string  `json:"kernel"`
	Strategy string  `json:"strategy"`
	N        int     `json:"n"`
	P        int     `json:"p"`
	Seed     uint64  `json:"seed"`
	Beta     float64 `json:"beta,omitempty"`
	Batch    int     `json:"batch"`
	// LeaseSeconds is the resolved lease; -1 records "leases disabled"
	// explicitly, because on the wire 0 means "inherit the server
	// default" and the default may differ after a restart.
	LeaseSeconds float64 `json:"lease_seconds"`
	CreatedNs    int64   `json:"created_ns"`
}

// encodeCreateRecord builds the payload for run (everything needed is
// on the Run and its Host).
func encodeCreateRecord(run *Run) []byte {
	lease := run.Host.Lease().Seconds()
	if lease == 0 {
		lease = -1
	}
	rec := createRecord{
		ID:           run.ID,
		Kernel:       run.Kernel,
		Strategy:     run.Strategy,
		N:            run.N,
		P:            run.P,
		Seed:         run.Seed,
		Beta:         run.Beta,
		Batch:        run.Host.Batch(),
		LeaseSeconds: lease,
		CreatedNs:    run.Created.UnixNano(),
	}
	b, err := json.Marshal(&rec)
	if err != nil {
		// Marshal of a flat struct of scalars cannot fail.
		panic(fmt.Sprintf("service: encoding create record: %v", err))
	}
	return b
}

// decodeCreateRecord parses a MutCreate payload (or a snapshot's
// Request field).
func decodeCreateRecord(b []byte) (createRecord, error) {
	var rec createRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return rec, fmt.Errorf("service: decoding create record: %w", err)
	}
	if rec.ID == "" || rec.Batch < 1 || rec.P < 1 {
		return rec, fmt.Errorf("service: create record for %q is malformed", rec.ID)
	}
	return rec, nil
}

// request converts the record back into a validated creation request
// for NewDriver. The strategy was resolved at creation, so Validate's
// defaulting is a no-op on it.
func (rec createRecord) request() CreateRunRequest {
	return CreateRunRequest{
		ID:       rec.ID,
		Kernel:   rec.Kernel,
		Strategy: rec.Strategy,
		N:        rec.N,
		P:        rec.P,
		Seed:     rec.Seed,
		Beta:     rec.Beta,
		Batch:    rec.Batch,
	}
}

// lease returns the record's lease duration.
func (rec createRecord) lease() time.Duration {
	if rec.LeaseSeconds <= 0 {
		return 0
	}
	return time.Duration(rec.LeaseSeconds * float64(time.Second))
}

// --- Host snapshot / restore -----------------------------------------

// fillSnapshot captures the host-owned durable state and the driver's
// own state into s: a consistent cut at watermark h.muts, taken under
// mu. Grants and stains are sorted so snapshot bytes are deterministic
// for a given state. A driver that is not a core.Snapshotter leaves
// Driver empty, which restore refuses.
func (h *Host) fillSnapshot(s *durable.RunSnapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s.Mutations = h.muts
	s.StartNs = h.start.UnixNano()
	s.LastNs = h.last.UnixNano()
	s.LastPollNs = h.lastPoll.UnixNano()
	s.Assigned = int64(h.ms.Assigned)
	s.Completed = int64(h.ms.Completed)
	s.Reclaimed = int64(h.ms.Reclaimed)
	s.Blocks = int64(h.ms.Blocks)
	s.Requests = int64(h.ms.Requests)
	s.Polls = int64(h.polls)
	n, mean, m2, lo, hi := h.batchAcc.State()
	s.BatchN, s.BatchMean, s.BatchM2, s.BatchMin, s.BatchMax = int64(n), mean, m2, lo, hi
	s.BatchHist = append([]int64(nil), h.batchHist[:]...)
	s.Workers = make([]durable.WorkerCounters, h.p)
	for i := range s.Workers {
		s.Workers[i] = durable.WorkerCounters{
			Requests:  int64(h.ms.RequestsPer[i]),
			Tasks:     int64(h.ms.CompletedPer[i]),
			Blocks:    int64(h.ms.BlocksPer[i]),
			Reclaimed: int64(h.ms.ReclaimedPer[i]),
		}
	}
	s.Trace = h.tr.Clone()
	s.Open = make([]int32, len(h.open))
	for i, idx := range h.open {
		s.Open[i] = int32(idx)
	}
	s.Grants = s.Grants[:0]
	h.outstanding.forEach(func(t core.Task, worker int32, expiryNs int64) {
		s.Grants = append(s.Grants, durable.Grant{Task: int64(t), ExpiryNs: expiryNs, Worker: worker})
	})
	sort.Slice(s.Grants, func(i, j int) bool { return s.Grants[i].Task < s.Grants[j].Task })
	s.Stains = s.Stains[:0]
	for to := range h.reclaimedFrom {
		s.Stains = append(s.Stains, durable.Stain{Task: int64(to.task), Worker: int32(to.worker)})
	}
	sort.Slice(s.Stains, func(i, j int) bool {
		if s.Stains[i].Task != s.Stains[j].Task {
			return s.Stains[i].Task < s.Stains[j].Task
		}
		return s.Stains[i].Worker < s.Stains[j].Worker
	})
	if sn, ok := h.drv.(core.Snapshotter); ok {
		s.Driver = sn.AppendState(nil)
	}
}

// restoreHost rebuilds a Host, and the driver drv inside it, from a
// snapshot: drv is fresh from the run's creation record and is handed
// the snapshot's driver state. The host's clock is frozen at the run's
// creation; rebuild replays the tail at recorded instants and then
// flips the host live. The master's ledger comes back from the
// snapshot's counters; a worker's granted tasks are those it completed,
// lost to a reclaim or still holds.
func restoreHost(drv core.Driver, rec createRecord, s *durable.RunSnapshot) (*Host, error) {
	sn, ok := drv.(core.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("service: driver %s has no state codec", drv.Name())
	}
	if err := sn.RestoreState(s.Driver); err != nil {
		return nil, fmt.Errorf("service: driver state of %q: %w", s.ID, err)
	}
	created := time.Unix(0, rec.CreatedNs)
	h := NewHostWithClock(drv, rec.Batch, rec.lease(), func() time.Time { return created })
	if len(s.Workers) != h.p || len(s.Open) != h.p {
		return nil, fmt.Errorf("service: snapshot of %q has %d workers, driver has %d", s.ID, len(s.Workers), h.p)
	}
	if len(s.BatchHist) > batchBuckets {
		return nil, fmt.Errorf("service: snapshot of %q has %d histogram buckets, host has %d", s.ID, len(s.BatchHist), batchBuckets)
	}
	h.muts = s.Mutations
	h.start = time.Unix(0, s.StartNs)
	h.last = time.Unix(0, s.LastNs)
	h.lastPoll = time.Unix(0, s.LastPollNs)
	h.ms.Assigned = int(s.Assigned)
	h.ms.Completed = int(s.Completed)
	h.ms.Reclaimed = int(s.Reclaimed)
	h.ms.Blocks = int(s.Blocks)
	h.ms.Requests = int(s.Requests)
	h.polls = int(s.Polls)
	h.batchAcc = stats.RestoreAccumulator(int(s.BatchN), s.BatchMean, s.BatchM2, s.BatchMin, s.BatchMax)
	copy(h.batchHist[:], s.BatchHist)
	for i, wc := range s.Workers {
		h.ms.RequestsPer[i] = int(wc.Requests)
		h.ms.CompletedPer[i] = int(wc.Tasks)
		h.ms.BlocksPer[i] = int(wc.Blocks)
		h.ms.ReclaimedPer[i] = int(wc.Reclaimed)
		h.ms.TasksPer[i] = int(wc.Tasks + wc.Reclaimed)
	}
	h.tr = s.Trace // adopted: the snapshot is not used after restore
	for w, idx := range s.Open {
		if int(idx) >= h.tr.Len() {
			return nil, fmt.Errorf("service: snapshot of %q has open segment %d past trace length %d", s.ID, idx, h.tr.Len())
		}
		h.open[w] = int(idx)
	}
	var nextNs int64
	for _, g := range s.Grants {
		w := int(g.Worker)
		if w < 0 || w >= h.p {
			return nil, fmt.Errorf("service: snapshot of %q grants task %d to worker %d of %d", s.ID, g.Task, w, h.p)
		}
		h.outstanding.put(core.Task(g.Task), g.Worker, g.ExpiryNs)
		h.ms.TasksPer[w]++
		if g.ExpiryNs > 0 && (nextNs == 0 || g.ExpiryNs < nextNs) {
			nextNs = g.ExpiryNs
		}
	}
	h.nextExpiryNs = nextNs
	for _, st := range s.Stains {
		w := int(st.Worker)
		if w < 0 || w >= h.p {
			return nil, fmt.Errorf("service: snapshot of %q stains worker %d of %d", s.ID, w, h.p)
		}
		if h.reclaimedFrom == nil {
			return nil, fmt.Errorf("service: snapshot of %q has stains but leases are disarmed", s.ID)
		}
		h.reclaimedFrom[taskOwner{core.Task(st.Task), w}] = struct{}{}
	}
	h.lastState = h.stateLocked()
	return h, nil
}

// snapshot cuts a full RunSnapshot of the run.
func (r *Run) snapshot() *durable.RunSnapshot {
	s := &durable.RunSnapshot{
		ID:        r.ID,
		Expired:   r.Expired(),
		Request:   encodeCreateRecord(r),
		CreatedNs: r.Created.UnixNano(),
	}
	r.Host.fillSnapshot(s)
	return s
}
