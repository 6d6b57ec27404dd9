package service

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/durable"
)

// The migration chaos matrix: every way a snapshot-ship-replay handoff
// can be interrupted — source killed mid-transfer, destination killed
// mid-replay, the same run migrated twice, a stale owner poked after
// the fence — must resolve to exactly-once accounting and
// deterministic rejections, through both the in-process (Migrate into
// ImportRun) and the HTTP (POST /v1/runs/{id}/migrate) paths.

// migrateWorld is a pair of journaled servers behind httptest
// listeners, the minimal two-host fleet a migration needs.
type migrateWorld struct {
	src, dst     *Server
	srcTS, dstTS *httptest.Server
	srcDir       string
}

func newMigrateWorld(t *testing.T) *migrateWorld {
	t.Helper()
	w := &migrateWorld{srcDir: t.TempDir()}
	w.src, w.srcTS = newJournaledServer(t, w.srcDir)
	w.dst, w.dstTS = newJournaledServer(t, t.TempDir())
	return w
}

func newJournaledServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	jr, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{GCInterval: -1, Journal: jr})
	ts := httptest.NewServer(svc)
	t.Cleanup(func() { ts.Close(); svc.Close(); jr.Close() })
	return svc, ts
}

// importInto is the in-process push: the stream goes straight to dst's
// ImportRun.
func importInto(dst *Server) func([]byte) error {
	return func(stream []byte) error {
		_, err := dst.ImportRun(stream)
		return err
	}
}

// seedRun creates a small flat run on src and drives every worker
// through a couple of accepted polls so the migrated state is mid-run:
// leases held, tasks completed, more outstanding.
func (w *migrateWorld) seedRun(t *testing.T) (RunInfo, [][]int64, map[int64]int) {
	t.Helper()
	info := createRun(t, w.srcTS.URL, CreateRunRequest{
		ID: "mig-1", Kernel: KernelOuter, Strategy: "2phases", N: 8, P: 4, Seed: 11, Batch: 2,
	})
	accepted := make(map[int64]int)
	pending := make([][]int64, info.P)
	for round := 0; round < 2; round++ {
		for wk := 0; wk < info.P; wk++ {
			var resp NextResponse
			code := call(t, "POST", w.srcTS.URL+"/v1/runs/"+info.ID+"/next",
				NextRequest{Worker: wk, Completed: pending[wk]}, &resp)
			if code != http.StatusOK {
				t.Fatalf("seed poll: status %d", code)
			}
			for _, task := range pending[wk] {
				accepted[task]++
			}
			pending[wk] = resp.Tasks
		}
	}
	// The held batches stay unreported for now: the destination must
	// honor them after the replay exactly as the source would have.
	return info, pending, accepted
}

// drainOn polls round-robin against base until every worker sees done,
// folding accepted completions into the ledger.
func drainOn(t *testing.T, base string, info RunInfo, pending [][]int64, accepted map[int64]int) {
	t.Helper()
	if pending == nil {
		pending = make([][]int64, info.P)
	}
	done := make([]bool, info.P)
	for remaining := info.P; remaining > 0; {
		for wk := 0; wk < info.P; wk++ {
			if done[wk] {
				continue
			}
			var resp NextResponse
			code := call(t, "POST", base+"/v1/runs/"+info.ID+"/next",
				NextRequest{Worker: wk, Completed: pending[wk]}, &resp)
			if code == http.StatusConflict {
				pending[wk] = nil // lost lease race; keep polling
				continue
			}
			if code != http.StatusOK {
				t.Fatalf("drain poll worker %d: status %d", wk, code)
			}
			for _, task := range pending[wk] {
				accepted[task]++
			}
			pending[wk] = resp.Tasks
			if resp.Status == StatusDone {
				done[wk] = true
				remaining--
			}
		}
	}
}

func checkExactlyOnce(t *testing.T, accepted map[int64]int, total int) {
	t.Helper()
	if len(accepted) != total {
		t.Fatalf("%d distinct tasks accepted, want %d", len(accepted), total)
	}
	for task, n := range accepted {
		if n != 1 {
			t.Fatalf("task %d accepted %d times across the handoff", task, n)
		}
	}
}

// TestMigrateHTTP is the happy path over the wire: fence, ship,
// replay, commit — then the fleet drains on the destination and the
// stale source deterministically 410s polls and completions.
func TestMigrateHTTP(t *testing.T) {
	w := newMigrateWorld(t)
	info, pending, accepted := w.seedRun(t)

	var resp struct {
		ID     string `json:"id"`
		Target string `json:"target"`
	}
	code := call(t, "POST", w.srcTS.URL+"/v1/runs/"+info.ID+"/migrate",
		map[string]string{"target": w.dstTS.URL}, &resp)
	if code != http.StatusOK || resp.ID != info.ID {
		t.Fatalf("migrate: status %d resp %+v", code, resp)
	}

	// Stale owner: polls and completion reports both draw 410, with no
	// retry hint — this host will never serve the run again.
	for _, body := range []NextRequest{
		{Worker: 0},
		{Worker: 1, Completed: []int64{0}},
	} {
		code := call(t, "POST", w.srcTS.URL+"/v1/runs/"+info.ID+"/next", body, nil)
		if code != http.StatusGone {
			t.Fatalf("stale owner answered %d to %+v, want 410", code, body)
		}
	}
	if code := call(t, "GET", w.srcTS.URL+"/v1/runs/"+info.ID+"/stats", nil, nil); code != http.StatusGone {
		t.Fatalf("stale owner stats: status %d, want 410", code)
	}

	// Re-migrating a run that already left is 410 too, not a hang.
	if code := call(t, "POST", w.srcTS.URL+"/v1/runs/"+info.ID+"/migrate",
		map[string]string{"target": w.dstTS.URL}, nil); code != http.StatusGone {
		t.Fatalf("double migrate after commit: status %d, want 410", code)
	}

	drainOn(t, w.dstTS.URL, info, pending, accepted)
	checkExactlyOnce(t, accepted, info.Total)

	var st StatsResponse
	if code := call(t, "GET", w.dstTS.URL+"/v1/runs/"+info.ID+"/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("destination stats: status %d", code)
	}
	if st.Completed != info.Total || st.State != StateComplete {
		t.Fatalf("destination finished %d/%d state %s", st.Completed, info.Total, st.State)
	}
}

// TestMigrateDirect is the same handoff through the in-process path
// the federation router's direct targets use.
func TestMigrateDirect(t *testing.T) {
	w := newMigrateWorld(t)
	info, pending, accepted := w.seedRun(t)

	if err := w.src.Migrate(info.ID, importInto(w.dst)); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if _, ok := w.src.Registry().Get(info.ID); ok {
		t.Fatal("source still holds the run after commit")
	}
	if !w.src.Registry().MigratedOut(info.ID) {
		t.Fatal("source left no tombstone")
	}
	run, ok := w.dst.Registry().Get(info.ID)
	if !ok {
		t.Fatal("destination does not hold the run")
	}
	drainOn(t, w.dstTS.URL, info, pending, accepted)
	checkExactlyOnce(t, accepted, info.Total)
	if st := run.Host.Stats(); st.Completed != info.Total {
		t.Fatalf("destination finished %d/%d", st.Completed, info.Total)
	}
}

// TestMigrateFencePending: between beginMigrate and the commit, the
// source answers every poll 409 with a Retry-After hint — the handoff
// window is a retry, not an error — and an abort reopens the run with
// nothing lost.
func TestMigrateFencePending(t *testing.T) {
	w := newMigrateWorld(t)
	info, pending, accepted := w.seedRun(t)

	stream, err := w.src.beginMigrate(info.ID)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if len(stream) == 0 {
		t.Fatal("empty transfer stream")
	}

	req, err := http.NewRequest("POST", w.srcTS.URL+"/v1/runs/"+info.ID+"/next",
		strings.NewReader(`{"worker": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("fenced poll: status %d, want 409", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("fenced poll carries no Retry-After hint")
	}

	// Double-migrate while in flight: the second Begin refuses.
	if _, err := w.src.beginMigrate(info.ID); !errors.Is(err, ErrMigrating) {
		t.Fatalf("concurrent begin: %v, want ErrMigrating", err)
	}

	w.src.abortMigrate(info.ID)
	drainOn(t, w.srcTS.URL, info, pending, accepted)
	checkExactlyOnce(t, accepted, info.Total)
}

// TestMigrateSourceCrashMidTransfer: the source dies after fencing and
// exporting but before the destination ever saw the stream. Nothing
// was journaled about the aborted handoff, so a restart of the source
// serves the run exactly as before — and the death path can still
// read the run back from the directory the corpse left behind.
func TestMigrateSourceCrashMidTransfer(t *testing.T) {
	w := newMigrateWorld(t)
	info, pending, accepted := w.seedRun(t)

	if _, err := w.src.beginMigrate(info.ID); err != nil {
		t.Fatalf("begin: %v", err)
	}
	// SIGKILL: the stream never reaches the destination, the process
	// dies with the fence up. Only the journal directory survives.
	w.srcTS.Close()
	w.src.Close()

	// The scavenger's view of the corpse's directory still owes the run.
	runs, err := durable.ReadRuns(w.srcDir)
	if err != nil {
		t.Fatalf("scanning dead source: %v", err)
	}
	if len(runs) != 1 || runs[0].ID != info.ID {
		t.Fatalf("dead source owes %+v, want [%s]", runs, info.ID)
	}
	if runs[0].Err != nil {
		t.Fatalf("extracting from dead source: %v", runs[0].Err)
	}
	stream := durable.AppendTransfer(nil, runs[0].Snap, runs[0].Tail)
	if _, err := w.dst.ImportRun(stream); err != nil {
		t.Fatalf("importing scavenged stream: %v", err)
	}
	drainOn(t, w.dstTS.URL, info, pending, accepted)
	checkExactlyOnce(t, accepted, info.Total)
}

// TestMigrateReturnSurvivesRestart: a run migrated A→B and straight
// back to A, with no poll on B, survives a restart of A on its
// directory. A's journal holds the departure's MutSwept; the returning
// import takes the next sequence number, so its snapshot sits above
// that record, and both the restart and the death path's reader keep
// the run.
func TestMigrateReturnSurvivesRestart(t *testing.T) {
	w := newMigrateWorld(t)
	info, pending, accepted := w.seedRun(t)

	if err := w.src.Migrate(info.ID, importInto(w.dst)); err != nil {
		t.Fatalf("migrate A→B: %v", err)
	}
	if err := w.dst.Migrate(info.ID, importInto(w.src)); err != nil {
		t.Fatalf("migrate B→A: %v", err)
	}
	// SIGKILL A: only its journal directory survives.
	w.srcTS.Close()
	w.src.Close()

	reborn, rebornTS := newJournaledServer(t, w.srcDir)
	if err := reborn.RecoveryErr(); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if _, ok := reborn.Registry().Get(info.ID); !ok {
		t.Fatal("restarted A lost the run")
	}
	runs, err := durable.ReadRuns(w.srcDir)
	if err != nil || len(runs) != 1 || runs[0].ID != info.ID || runs[0].Err != nil {
		t.Fatalf("the reader lists %+v (%v), want [%s]", runs, err, info.ID)
	}
	drainOn(t, rebornTS.URL, info, pending, accepted)
	checkExactlyOnce(t, accepted, info.Total)
}

// TestMigrateSourceRestartAfterBegin: the fence is memory-only state —
// a restarted source (same directory) serves the run unfenced with its
// full pre-crash ledger.
func TestMigrateSourceRestartAfterBegin(t *testing.T) {
	dir := t.TempDir()
	src, srcTS := newJournaledServer(t, dir)
	info := createRun(t, srcTS.URL, CreateRunRequest{
		ID: "mig-r", Kernel: KernelOuter, N: 4, P: 2, Seed: 3, Batch: 2,
	})
	accepted := make(map[int64]int)
	if _, err := src.beginMigrate(info.ID); err != nil {
		t.Fatalf("begin: %v", err)
	}
	srcTS.Close()
	src.Close()

	reborn, rebornTS := newJournaledServer(t, dir)
	if err := reborn.RecoveryErr(); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	run, ok := reborn.Registry().Get(info.ID)
	if !ok {
		t.Fatal("restarted source lost the run")
	}
	if run.Host.Fenced() {
		t.Fatal("fence survived the restart")
	}
	drainOn(t, rebornTS.URL, info, nil, accepted)
	checkExactlyOnce(t, accepted, info.Total)
}

// TestMigrateDestCrashMidReplay: the destination dies (or chokes)
// while consuming the stream. The push fails, the source aborts and
// keeps serving; a later migrate to a healthy destination succeeds.
func TestMigrateDestCrashMidReplay(t *testing.T) {
	w := newMigrateWorld(t)
	info, pending, accepted := w.seedRun(t)

	// A destination that reads half the body and drops the connection —
	// the wire shape of a SIGKILL mid-replay.
	dying := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.CopyN(io.Discard, r.Body, 64)
		if hj, ok := rw.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		rw.WriteHeader(http.StatusInternalServerError)
	}))
	defer dying.Close()

	code := call(t, "POST", w.srcTS.URL+"/v1/runs/"+info.ID+"/migrate",
		map[string]string{"target": dying.URL}, nil)
	if code != http.StatusBadGateway {
		t.Fatalf("migrate to dying destination: status %d, want 502", code)
	}
	// The abort reopened the run instantly: no fence residue, no loss.
	if run, ok := w.src.Registry().Get(info.ID); !ok || run.Host.Fenced() {
		t.Fatalf("source did not resume after failed handoff (present=%v)", ok)
	}

	// Second attempt, healthy destination: clean handoff.
	if code := call(t, "POST", w.srcTS.URL+"/v1/runs/"+info.ID+"/migrate",
		map[string]string{"target": w.dstTS.URL}, nil); code != http.StatusOK {
		t.Fatalf("retry migrate: status %d", code)
	}
	drainOn(t, w.dstTS.URL, info, pending, accepted)
	checkExactlyOnce(t, accepted, info.Total)
}

// TestMigrateDoubleImport: shipping the same stream twice — the
// double-migrate race resolved on the destination — refuses the second
// copy, in-process and over the wire.
func TestMigrateDoubleImport(t *testing.T) {
	w := newMigrateWorld(t)
	info, _, _ := w.seedRun(t)

	stream, err := w.src.beginMigrate(info.ID)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := w.dst.ImportRun(stream); err != nil {
		t.Fatalf("first import: %v", err)
	}
	if _, err := w.dst.ImportRun(stream); err == nil {
		t.Fatal("second import of the same run accepted")
	}
	// Over the wire the duplicate is a 409.
	req, err := http.NewRequest("POST", w.dstTS.URL+"/v1/runs/import", strings.NewReader(string(stream)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeTransfer)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("wire duplicate import: status %d, want 409", resp.StatusCode)
	}
	if err := w.src.commitMigrate(info.ID); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// TestMigrateReplayedLeases: a lease held across the handoff stays
// held — the destination replays the grant table, so the holder's
// eventual completion is accepted there (and nowhere else) exactly
// once. This is the "no task granted by two hosts" law at the
// single-task grain.
func TestMigrateReplayedLeases(t *testing.T) {
	w := newMigrateWorld(t)
	info, pending, accepted := w.seedRun(t)

	srcRun, _ := w.src.Registry().Get(info.ID)
	before := srcRun.Host.Stats()
	if err := w.src.Migrate(info.ID, importInto(w.dst)); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	dstRun, _ := w.dst.Registry().Get(info.ID)
	after := dstRun.Host.Stats()
	if before.Assigned != after.Assigned || before.Completed != after.Completed ||
		before.Outstanding != after.Outstanding || before.Reclaimed != after.Reclaimed {
		t.Fatalf("ledger changed across handoff: %+v -> %+v", before, after)
	}
	drainOn(t, w.dstTS.URL, info, pending, accepted)
	checkExactlyOnce(t, accepted, info.Total)
}

// TestMigrateStaleDirectPointer: a component still holding the
// source's *Run after the commit gets the typed MigratedError from the
// scheduling core itself — the fence holds even below the HTTP layer.
func TestMigrateStaleDirectPointer(t *testing.T) {
	w := newMigrateWorld(t)
	info, _, _ := w.seedRun(t)
	stale, _ := w.src.Registry().Get(info.ID)

	if err := w.src.Migrate(info.ID, importInto(w.dst)); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	_, _, err := stale.Host.Next(0, nil)
	var merr *MigratedError
	if !errors.As(err, &merr) || !merr.Done {
		t.Fatalf("stale pointer poll: %v, want committed MigratedError", err)
	}
	_, _, err = stale.Host.Next(1, []core.Task{0})
	if !errors.As(err, &merr) || !merr.Done {
		t.Fatalf("stale pointer completion: %v, want committed MigratedError", err)
	}
}
