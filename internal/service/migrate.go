package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"hetsched/internal/durable"
	"hetsched/internal/pollserve"
)

// This file is the host side of live run migration (snapshot-ship-
// replay): a source fences a run, cuts its state into a self-contained
// durable transfer stream, and ships it; the destination replays the
// stream through the exact recovery path and atomically takes
// ownership. The federation router orchestrates which runs move where
// (internal/federation); this layer only knows how to move one run
// correctly, in one body (Migrate) whoever asks.
//
// Protocol (three-phase, source-driven):
//
//	beginMigrate  fence the run (polls draw 409), cut snapshot, encode
//	ImportRun     destination decodes, replays, registers (durable first)
//	commitMigrate source journals the departure (MutSwept), removes the
//	              run and leaves a tombstone (polls draw 410)
//	abortMigrate  destination failed: unfence, resume serving — no state
//	              was lost because none ever left memory
//
// The fence is the exactly-once guarantee across the handoff: from
// Fence to Commit/Abort no poll can mutate either copy, so the
// destination's replayed ledger is bit-identical to the source's
// frozen one, and after Commit the stale owner deterministically
// rejects every late poll and completion (409 while pending, 410
// after).

// ContentTypeTransfer is the media type of an encoded transfer stream.
const ContentTypeTransfer = "application/x-schedd-transfer"

// maxTransferBytes bounds an import body: transfer streams carry a
// whole run (snapshot, driver state, journal tail) and routinely
// exceed the JSON request cap.
const maxTransferBytes = 1 << 30

// ErrMigrating reports a Begin on a run whose migration is already in
// flight (the double-migrate guard); the server maps it to 409.
var ErrMigrating = errors.New("service: run is already migrating")

// ErrMigrated reports a Begin on a run that already left this host —
// its tombstone remains; the server maps it to 410.
var ErrMigrated = errors.New("service: run migrated away")

// ErrRunNotFound reports a Begin on a run this host does not hold.
var ErrRunNotFound = errors.New("service: unknown run")

// beginMigrate fences run id and returns its transfer stream: the
// run's full state as of this instant, encoded for ImportRun on the
// destination. The run rejects every mutation until the caller
// resolves the handoff with commitMigrate (destination acknowledged)
// or abortMigrate (handoff failed; resume serving).
func (s *Server) beginMigrate(id string) ([]byte, error) {
	select {
	case <-s.recovered:
	default:
		return nil, fmt.Errorf("service: migrate refused: journal recovery has not completed")
	}
	run, ok := s.reg.Get(id)
	if !ok {
		if s.reg.MigratedOut(id) {
			return nil, fmt.Errorf("%w: %q", ErrMigrated, id)
		}
		return nil, fmt.Errorf("%w: %q", ErrRunNotFound, id)
	}
	if run.Expired() {
		return nil, fmt.Errorf("%w: %q is expired", ErrRunNotFound, id)
	}
	if !run.Host.Fence() {
		return nil, fmt.Errorf("%w: %q", ErrMigrating, id)
	}
	return durable.AppendTransfer(nil, run.snapshot(), nil), nil
}

// abortMigrate resumes serving a run whose handoff failed. The fence
// guaranteed nothing mutated since beginMigrate, so the shipped bytes
// simply become garbage and the source copy stays authoritative.
func (s *Server) abortMigrate(id string) {
	if run, ok := s.reg.Get(id); ok {
		run.Host.Unfence()
	}
}

// commitMigrate finalizes a handoff the destination acknowledged: the
// departure is journaled (MutSwept — a restart of this host must not
// resurrect a run that lives elsewhere), the run leaves the registry
// with a tombstone behind it, and its event stream closes with a
// terminal run_swept. Late polls draw 410 from the tombstone (or from
// the committed fence if they already hold the run pointer).
func (s *Server) commitMigrate(id string) error {
	run, ok := s.reg.Get(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrRunNotFound, id)
	}
	run.Host.commitFence()
	nowNs := s.opts.Now().UnixNano()
	run.Host.journalSwept(nowNs)
	if jr := s.opts.Journal; jr != nil {
		if err := jr.Commit(); err != nil {
			// The run has already left in-memory ownership semantics
			// (committed fence), but the departure record may not survive a
			// crash — a restart could resurrect a stale copy. Surface it;
			// the router's ring still shields the stale copy from traffic.
			s.reg.MigrateOut(id)
			return &JournalError{Err: err}
		}
	}
	s.reg.MigrateOut(id)
	s.opts.Events.Swept(id, nowNs)
	return nil
}

// ImportRun installs a transferred run on this host: decode the
// stream, rebuild the run through the body crash recovery uses, make
// it durable (snapshot into this host's journal, when one is
// attached), and register it. The import is the run's next mutation:
// it takes the next sequence number, so the snapshot sits above every
// record an earlier stay here journaled, the departure's MutSwept
// included, and a restart reads the returned run back instead of
// dropping it. Returns the installed run. A run with the same id
// already present — a double migrate, or a stale copy — refuses the
// import.
func (s *Server) ImportRun(stream []byte) (*Run, error) {
	select {
	case <-s.recovered:
	default:
		return nil, fmt.Errorf("service: import refused: journal recovery has not completed")
	}
	snap, tail, err := durable.DecodeTransfer(stream)
	if err != nil {
		return nil, err
	}
	run, err := rebuild(snap, tail, s.opts.Journal, s.opts.Now)
	if err != nil {
		return nil, err
	}
	run.Host.muts++
	if s.opts.Journal != nil {
		// Durable before visible, the addNew discipline: the imported
		// state is persisted as a snapshot at its watermark before any
		// worker can learn the run lives here, so a crash right after
		// the import recovers exactly what was acknowledged.
		if err := s.opts.Journal.WriteSnapshot(run.snapshot()); err != nil {
			return nil, fmt.Errorf("service: persisting imported run %q: %w", run.ID, err)
		}
	}
	if !s.reg.AddRecovered(run) {
		return nil, fmt.Errorf("service: run %q already exists here (double migrate?)", run.ID)
	}
	run.Host.AttachEvents(s.opts.Events.Run(run.ID))
	return run, nil
}

// Migrate moves run id off this host, the one body every migration
// takes: fence and export the run (beginMigrate), hand the stream to
// push, then commit the departure (commitMigrate) or, when push fails,
// unfence and keep serving (abortMigrate) — the run is never in limbo.
// push delivers the stream to the destination: its ImportRun in process,
// PushTransfer to a remote host's import endpoint.
func (s *Server) Migrate(id string, push func(stream []byte) error) error {
	stream, err := s.beginMigrate(id)
	if err != nil {
		return err
	}
	if err := push(stream); err != nil {
		s.abortMigrate(id)
		return err
	}
	return s.commitMigrate(id)
}

// migrateRequest is the body of POST /v1/runs/{id}/migrate: the base
// URL of the destination host.
type migrateRequest struct {
	Target string `json:"target"`
}

// migrateResponse acknowledges a completed migration.
type migrateResponse struct {
	ID     string `json:"id"`
	Target string `json:"target"`
}

// handleMigrate serves POST /v1/runs/{id}/migrate on the source:
// Migrate, pushing the stream to the target's import endpoint with a
// client that gives the push 30s.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var q migrateRequest
	r.Body = http.MaxBytesReader(w, r.Body, pollserve.MaxBody)
	if err := DecodeStrict(r.Body, &q); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	if q.Target == "" {
		writeError(w, http.StatusBadRequest, "migrate needs a target base URL")
		return
	}
	var pushed bool
	var pushErr error
	err := s.Migrate(id, func(stream []byte) error {
		pushed = true
		pushErr = PushTransfer(&http.Client{Timeout: 30 * time.Second}, q.Target, stream)
		return pushErr
	})
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, migrateResponse{ID: id, Target: q.Target})
	case pushErr != nil:
		writeError(w, http.StatusBadGateway, fmt.Sprintf("migrating %q to %s: %v", id, q.Target, pushErr))
	case pushed:
		// The destination owns the run now; a commit failure here is a
		// journaling problem on the source, not a failed migration.
		writeError(w, http.StatusInternalServerError, err.Error())
	case errors.Is(err, ErrMigrating):
		writeError(w, http.StatusConflict, err.Error())
	case errors.Is(err, ErrMigrated):
		writeError(w, http.StatusGone, err.Error())
	case errors.Is(err, ErrRunNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	default:
		writeError(w, http.StatusServiceUnavailable, err.Error())
	}
}

// handleImport serves POST /v1/runs/import on the destination: the
// body is one transfer stream; 201 acknowledges that the run is
// rebuilt, durable and owned here.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxTransferBytes)
	stream, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading transfer stream: %v", err))
		return
	}
	run, err := s.ImportRun(stream)
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, run.Info())
}

// PushTransfer POSTs one transfer stream to the import endpoint of the
// host at target (a base URL). Exported for the federation router,
// whose remote targets import through it: a run migrating to one, or
// scavenged from a dead host's journal.
func PushTransfer(client *http.Client, target string, stream []byte) error {
	req, err := http.NewRequest("POST", target+"/v1/runs/import", bytes.NewReader(stream))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", ContentTypeTransfer)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("import answered %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}
