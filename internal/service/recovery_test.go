package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/durable"
)

// vclock is the injected test clock: every host, the registry TTL and
// the replayed timestamps run on it.
type vclock struct{ t time.Time }

func newVclock() *vclock              { return &vclock{t: time.Unix(1000, 0)} }
func (c *vclock) now() time.Time      { return c.t }
func (c *vclock) adv(d time.Duration) { c.t = c.t.Add(d) }

// world is one journaled service instance under test: a registry wired
// to a journal, plus the options used to create and recover runs.
type world struct {
	t    *testing.T
	clk  *vclock
	dir  string
	jr   *durable.Log
	reg  *Registry
	opts Options
}

func newWorld(t *testing.T, dir string, clk *vclock, journaled bool) *world {
	t.Helper()
	w := &world{t: t, clk: clk, dir: dir}
	w.opts = Options{DefaultBatch: 2, Now: clk.now}
	w.reg = NewRegistryWithClock(4, 0, clk.now)
	if journaled {
		jr, err := durable.Open(dir)
		if err != nil {
			t.Fatalf("open journal: %v", err)
		}
		t.Cleanup(func() { jr.Close() })
		w.jr = jr
		w.reg.AttachJournal(jr)
	}
	return w
}

// create builds and registers a run.
func (w *world) create(id string, q CreateRunRequest) *Run {
	w.t.Helper()
	if err := q.Validate(); err != nil {
		w.t.Fatalf("validate: %v", err)
	}
	q.ID = id
	run, err := w.opts.NewRun(id, &q)
	if err != nil {
		w.t.Fatalf("new run: %v", err)
	}
	added, err := w.reg.addNew(run)
	if err != nil {
		w.t.Fatalf("journaling run %q: %v", id, err)
	}
	if !added {
		w.t.Fatalf("duplicate run %q", id)
	}
	return run
}

// crashRecover simulates the SIGKILL + restart: the journal handle is
// dropped (committed bytes are already in the page cache — here, the
// file), a fresh Log is opened on the directory, and a fresh registry
// is recovered from it. The old world is unusable afterwards.
func (w *world) crashRecover() *world {
	w.t.Helper()
	w.jr.Close()
	nw := newWorld(w.t, w.dir, w.clk, true)
	if _, err := nw.opts.Recover(nw.reg, nw.jr); err != nil {
		w.t.Fatalf("recover: %v", err)
	}
	return nw
}

// scavenge reads dir back the way the death path does (one
// durable.ReadRuns) and returns run id's transfer stream, or the
// reader's error for it.
func scavenge(dir, id string) ([]byte, error) {
	runs, err := durable.ReadRuns(dir)
	if err != nil {
		return nil, err
	}
	for _, r := range runs {
		if r.ID == id {
			if r.Err != nil {
				return nil, r.Err
			}
			return durable.AppendTransfer(nil, r.Snap, r.Tail), nil
		}
	}
	return nil, fmt.Errorf("run %s is not in %s", id, dir)
}

// pollPattern drives every worker round-robin, each poll reporting the
// worker's previous batch, advancing the clock between polls; it
// returns a transcript of every response. Running the same pattern on
// two equal runs must produce equal transcripts.
type pending map[int][]core.Task

func pollRound(t *testing.T, run *Run, clk *vclock, pend pending, rounds int, step time.Duration) []string {
	t.Helper()
	var transcript []string
	p := run.P
	for r := 0; r < rounds; r++ {
		for wk := 0; wk < p; wk++ {
			clk.adv(step)
			a, status, err := run.Host.Next(wk, pend[wk])
			if err != nil {
				t.Fatalf("round %d worker %d: %v", r, wk, err)
			}
			pend[wk] = append(pend[wk][:0], a.Tasks...)
			transcript = append(transcript, fmt.Sprintf("w%d %s %v b%d", wk, status, a.Tasks, a.Blocks))
		}
	}
	return transcript
}

// compareRuns asserts the two runs are observationally identical: same
// stats, same trace, and — driven in lockstep to completion — the same
// responses.
func compareRuns(t *testing.T, got, want *Run, clkG, clkW *vclock, pendG, pendW pending) {
	t.Helper()
	sg, sw := got.Host.Stats(), want.Host.Stats()
	if !reflect.DeepEqual(sg, sw) {
		t.Fatalf("stats diverge after recovery:\n got  %+v\nwant %+v", sg, sw)
	}
	if !reflect.DeepEqual(got.Host.Trace(), want.Host.Trace()) {
		t.Fatalf("traces diverge after recovery")
	}
	for i := 0; i < 200; i++ {
		tg := pollRound(t, got, clkG, pendG, 1, time.Second)
		tw := pollRound(t, want, clkW, pendW, 1, time.Second)
		if !reflect.DeepEqual(tg, tw) {
			t.Fatalf("post-recovery round %d diverges:\n got  %v\nwant %v", i, tg, tw)
		}
		if got.Host.State() == StateComplete && want.Host.State() == StateComplete {
			break
		}
	}
	if got.Host.State() != StateComplete {
		t.Fatalf("runs did not drain: got %s want %s", got.Host.State(), want.Host.State())
	}
	if sg, sw := got.Host.Stats(), want.Host.Stats(); !reflect.DeepEqual(sg, sw) {
		t.Fatalf("final stats diverge:\n got  %+v\nwant %+v", sg, sw)
	}
}

// twinRun sets up the uninterrupted control: same creation, same poll
// prefix, no journal, no crash.
func twinRun(t *testing.T, q CreateRunRequest) (*Run, *vclock) {
	t.Helper()
	clk := newVclock()
	w := newWorld(t, "", clk, false)
	return w.create("r-test", q), clk
}

var recoveryReq = CreateRunRequest{Kernel: KernelCholesky, N: 5, P: 3, Seed: 7, Batch: 2, LeaseSeconds: 30}

// TestRecoverTailOnly crashes before any checkpoint: recovery rebuilds
// the run from the create record plus the poll tail alone.
func TestRecoverTailOnly(t *testing.T) {
	clk := newVclock()
	w := newWorld(t, t.TempDir(), clk, true)
	run := w.create("r-test", recoveryReq)
	pend := pending{}
	pollRound(t, run, clk, pend, 3, time.Second)

	twin, twinClk := twinRun(t, recoveryReq)
	twinPend := pending{}
	pollRound(t, twin, twinClk, twinPend, 3, time.Second)

	nw := w.crashRecover()
	got, ok := nw.reg.Get("r-test")
	if !ok {
		t.Fatal("run lost in recovery")
	}
	compareRuns(t, got, twin, clk, twinClk, pend, twinPend)
}

// TestRecoverSnapshotPlusTail checkpoints mid-run, polls further, then
// crashes: recovery starts from the snapshot and replays only the tail.
func TestRecoverSnapshotPlusTail(t *testing.T) {
	clk := newVclock()
	w := newWorld(t, t.TempDir(), clk, true)
	run := w.create("r-test", recoveryReq)
	pend := pending{}
	pollRound(t, run, clk, pend, 2, time.Second)
	if err := w.reg.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	pollRound(t, run, clk, pend, 2, time.Second)

	twin, twinClk := twinRun(t, recoveryReq)
	twinPend := pending{}
	pollRound(t, twin, twinClk, twinPend, 4, time.Second)

	nw := w.crashRecover()
	got, ok := nw.reg.Get("r-test")
	if !ok {
		t.Fatal("run lost in recovery")
	}
	compareRuns(t, got, twin, clk, twinClk, pend, twinPend)
}

// TestRecoverCrashMidCheckpoint interrupts a checkpoint after the
// rotation but with the newer snapshot torn on disk: the older snapshot
// plus the longer journal tail must win.
func TestRecoverCrashMidCheckpoint(t *testing.T) {
	clk := newVclock()
	w := newWorld(t, t.TempDir(), clk, true)
	run := w.create("r-test", recoveryReq)
	pend := pending{}
	pollRound(t, run, clk, pend, 2, time.Second)
	if err := w.reg.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	pollRound(t, run, clk, pend, 2, time.Second)
	// The second checkpoint dies mid-write: its rotation happened, its
	// snapshot file is torn. (Write the torn file by hand; the real
	// writer goes through tmp+rename, so a torn *named* snapshot models
	// a crash after rename but mid-page-writeback — the worst case.)
	if _, err := w.jr.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	torn := []byte("HSN2 this snapshot write never finished")
	name := fmt.Sprintf("snap-%s-%016x.snap", "r-test", uint64(9999))
	if err := os.WriteFile(filepath.Join(w.dir, name), torn, 0o644); err != nil {
		t.Fatalf("write torn snapshot: %v", err)
	}

	twin, twinClk := twinRun(t, recoveryReq)
	twinPend := pending{}
	pollRound(t, twin, twinClk, twinPend, 4, time.Second)

	nw := w.crashRecover()
	got, ok := nw.reg.Get("r-test")
	if !ok {
		t.Fatal("run lost in recovery")
	}
	compareRuns(t, got, twin, clk, twinClk, pend, twinPend)
}

// TestRecoverAppendedButUnanswered models the crash window between the
// journal commit and the HTTP response: the journal holds a poll whose
// answer the worker never saw. The mutation is durable, so recovery
// applies it; the worker's retry of the same report is refused exactly
// like a duplicate report on a live server.
func TestRecoverAppendedButUnanswered(t *testing.T) {
	clk := newVclock()
	w := newWorld(t, t.TempDir(), clk, true)
	run := w.create("r-test", CreateRunRequest{Kernel: KernelOuter, N: 4, P: 2, Seed: 3, Batch: 2})
	a, _, err := run.Host.Next(0, nil)
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	granted := append([]core.Task(nil), a.Tasks...)
	clk.adv(time.Second)
	// The fatal poll: journaled, applied — and the response "lost".
	if _, _, err := run.Host.Next(0, granted); err != nil {
		t.Fatalf("poll: %v", err)
	}

	nw := w.crashRecover()
	got, ok := nw.reg.Get("r-test")
	if !ok {
		t.Fatal("run lost in recovery")
	}
	if c := got.Host.Stats().Completed; c != len(granted) {
		t.Fatalf("recovered Completed = %d, want %d (the unanswered poll must be applied)", c, len(granted))
	}
	// The worker retries the report it never got an answer for.
	if _, _, err := got.Host.Next(0, granted); err == nil {
		t.Fatal("retried report of already-applied completions was accepted")
	}
	// A clean poll proceeds normally.
	if _, status, err := got.Host.Next(0, nil); err != nil || status != StatusOK {
		t.Fatalf("clean poll after recovery: status %q err %v", status, err)
	}
}

// TestRecoverReplaysConflictStain reproduces the 409 path across a
// crash: a lease expires, the task is reclaimed (journaled), and the
// late report must draw LeaseExpiredError both live and after recovery.
func TestRecoverReplaysConflictStain(t *testing.T) {
	q := CreateRunRequest{Kernel: KernelOuter, N: 4, P: 2, Seed: 3, Batch: 2, LeaseSeconds: 5}
	clk := newVclock()
	w := newWorld(t, t.TempDir(), clk, true)
	run := w.create("r-test", q)
	a, _, err := run.Host.Next(0, nil)
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	victim := append([]core.Task(nil), a.Tasks...)
	clk.adv(10 * time.Second) // past the lease
	// Worker 1 polls; its lease gate reclaims worker 0's tasks first.
	if _, _, err := run.Host.Next(1, nil); err != nil {
		t.Fatalf("poll: %v", err)
	}
	if r := run.Host.Stats().Reclaimed; r != len(victim) {
		t.Fatalf("Reclaimed = %d, want %d", r, len(victim))
	}

	nw := w.crashRecover()
	got, ok := nw.reg.Get("r-test")
	if !ok {
		t.Fatal("run lost in recovery")
	}
	if r := got.Host.Stats().Reclaimed; r != len(victim) {
		t.Fatalf("recovered Reclaimed = %d, want %d", r, len(victim))
	}
	// The zombie worker 0 comes back with its late report: 409, exactly
	// as live.
	var lerr *LeaseExpiredError
	if _, _, err := got.Host.Next(0, victim[:1]); !errors.As(err, &lerr) {
		t.Fatalf("late report after recovery: %v, want LeaseExpiredError", err)
	}
}

// TestRecoverExpiredLeasesReclaimImmediately crashes with grants
// outstanding and recovers after their deadlines passed: the first
// janitor pass (or any poll) reclaims them immediately.
func TestRecoverExpiredLeasesReclaimImmediately(t *testing.T) {
	q := CreateRunRequest{Kernel: KernelOuter, N: 4, P: 2, Seed: 3, Batch: 2, LeaseSeconds: 5}
	clk := newVclock()
	w := newWorld(t, t.TempDir(), clk, true)
	run := w.create("r-test", q)
	a, _, err := run.Host.Next(0, nil)
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	granted := len(a.Tasks)
	if granted == 0 {
		t.Fatal("no tasks granted")
	}
	// Crash now; the machine stays down past every lease deadline.
	clk.adv(time.Minute)
	nw := w.crashRecover()
	got, ok := nw.reg.Get("r-test")
	if !ok {
		t.Fatal("run lost in recovery")
	}
	if n := got.Host.ReclaimExpired(); n != granted {
		t.Fatalf("janitor reclaim after recovery = %d, want %d", n, granted)
	}
	// The reclaim itself was journaled: a second crash recovers the
	// reclaimed state.
	nw2 := nw.crashRecover()
	got2, ok := nw2.reg.Get("r-test")
	if !ok {
		t.Fatal("run lost in second recovery")
	}
	if r := got2.Host.Stats().Reclaimed; r != granted {
		t.Fatalf("twice-recovered Reclaimed = %d, want %d", r, granted)
	}
}

// TestRestoredMasterLedger restores a host from the snapshot of a run
// driven part way, with one reclaim and grants still held, and checks
// that the restored master's ledger equals the live one field for
// field, per-worker grants included.
func TestRestoredMasterLedger(t *testing.T) {
	for _, q := range []CreateRunRequest{
		{Kernel: KernelOuter, N: 6, P: 3, Seed: 7, Batch: 2, LeaseSeconds: 30},
		recoveryReq,
	} {
		t.Run(q.Kernel, func(t *testing.T) {
			clk := newVclock()
			run := newWorld(t, "", clk, false).create("r-ledger", q)
			pend := pending{}
			// Worker w is granted at 10(w+1) s, so 45 s in, only worker
			// 0's lease has expired.
			pollRound(t, run, clk, pend, 1, 10*time.Second)
			clk.adv(15 * time.Second)
			if n := run.Host.ReclaimExpired(); n == 0 || n != len(pend[0]) {
				t.Fatalf("reclaimed %d tasks, want worker 0's %d", n, len(pend[0]))
			}
			pend[0] = nil
			pollRound(t, run, clk, pend, 2, time.Second)

			live := run.Host.ms
			if live.Completed == 0 || live.Reclaimed == 0 || live.Assigned == live.Completed+live.Reclaimed {
				t.Fatalf("ledger too thin to test: assigned %d, completed %d, reclaimed %d",
					live.Assigned, live.Completed, live.Reclaimed)
			}
			h, err := restoreFromSnapshot(run)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			got := h.ms
			for _, f := range []struct {
				name      string
				got, want int
			}{
				{"Requests", got.Requests, live.Requests},
				{"Assigned", got.Assigned, live.Assigned},
				{"Blocks", got.Blocks, live.Blocks},
				{"Completed", got.Completed, live.Completed},
				{"Reclaimed", got.Reclaimed, live.Reclaimed},
			} {
				if f.got != f.want {
					t.Errorf("restored %s = %d, live %d", f.name, f.got, f.want)
				}
			}
			for _, f := range []struct {
				name      string
				got, want []int
			}{
				{"RequestsPer", got.RequestsPer, live.RequestsPer},
				{"TasksPer", got.TasksPer, live.TasksPer},
				{"BlocksPer", got.BlocksPer, live.BlocksPer},
				{"CompletedPer", got.CompletedPer, live.CompletedPer},
				{"ReclaimedPer", got.ReclaimedPer, live.ReclaimedPer},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("restored %s = %v, live %v", f.name, f.got, f.want)
				}
			}
		})
	}
}

// TestRecoverLifecycleRecords covers the registry-level records: an
// explicit expiry survives a crash, and a swept run stays gone.
func TestRecoverLifecycleRecords(t *testing.T) {
	clk := newVclock()
	w := newWorld(t, t.TempDir(), clk, true)
	keep := w.create("r-keep", CreateRunRequest{Kernel: KernelOuter, N: 3, P: 2, Seed: 1})
	gone := w.create("r-gone", CreateRunRequest{Kernel: KernelOuter, N: 3, P: 2, Seed: 2})
	if _, _, err := keep.Host.Next(0, nil); err != nil {
		t.Fatalf("poll: %v", err)
	}
	// DELETE r-keep: expired but not yet swept.
	if keep.Expire() {
		w.reg.RecordExpire(keep)
	}
	// TTL-sweep r-gone out of existence.
	if gone.Expire() {
		w.reg.RecordExpire(gone)
	}
	if n := w.reg.Sweep(); n != 2 {
		t.Fatalf("sweep collected %d, want 2", n)
	}

	nw := w.crashRecover()
	if _, ok := nw.reg.Get("r-keep"); ok {
		t.Fatal("swept run r-keep resurrected by recovery")
	}
	if _, ok := nw.reg.Get("r-gone"); ok {
		t.Fatal("swept run r-gone resurrected by recovery")
	}
	if n := nw.reg.Len(); n != 0 {
		t.Fatalf("registry has %d runs after recovery, want 0", n)
	}
}

// TestRecoverExpiredUnsweptRun covers the snapshot Expired flag: a run
// deleted but not yet collected must come back expired (410 to its
// clients), not draining.
func TestRecoverExpiredUnsweptRun(t *testing.T) {
	clk := newVclock()
	w := newWorld(t, t.TempDir(), clk, true)
	run := w.create("r-test", CreateRunRequest{Kernel: KernelOuter, N: 3, P: 2, Seed: 1})
	if _, _, err := run.Host.Next(0, nil); err != nil {
		t.Fatalf("poll: %v", err)
	}
	if run.Expire() {
		w.reg.RecordExpire(run)
	}
	// Once via the journal tail...
	nw := w.crashRecover()
	got, ok := nw.reg.Get("r-test")
	if !ok {
		t.Fatal("run lost in recovery")
	}
	if got.State() != StateExpired {
		t.Fatalf("recovered state %q, want %q", got.State(), StateExpired)
	}
	// ...and once via the snapshot flag.
	if err := nw.reg.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	nw2 := nw.crashRecover()
	got2, ok := nw2.reg.Get("r-test")
	if !ok {
		t.Fatal("run lost in second recovery")
	}
	if got2.State() != StateExpired {
		t.Fatalf("snapshot-recovered state %q, want %q", got2.State(), StateExpired)
	}
}

// latestSegment returns the path of the highest journal generation in
// dir.
func latestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// TestRecoverTornInteriorGeneration pins the double-crash sequence the
// torn-tail handling must survive: crash one tears generation N, the
// restarted process acknowledges further polls into generation N+1, and
// a second restart must replay those acknowledgments — a torn tail ends
// only its own generation, not the whole journal.
func TestRecoverTornInteriorGeneration(t *testing.T) {
	clk := newVclock()
	dir := t.TempDir()
	w := newWorld(t, dir, clk, true)
	run := w.create("r-test", recoveryReq)
	pend := pending{}
	pollRound(t, run, clk, pend, 2, time.Second)
	w.jr.Close()
	// The first kill interrupts a frame write: torn bytes past the last
	// acknowledged frame.
	f, err := os.OpenFile(latestSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatalf("tear: %v", err)
	}
	f.Close()

	nw := newWorld(t, dir, clk, true)
	if _, err := nw.opts.Recover(nw.reg, nw.jr); err != nil {
		t.Fatalf("recovery over torn tail: %v", err)
	}
	got, ok := nw.reg.Get("r-test")
	if !ok {
		t.Fatal("run lost in first recovery")
	}
	// Acknowledged mutations land in the generation after the torn one.
	pollRound(t, got, clk, pend, 2, time.Second)

	twin, twinClk := twinRun(t, recoveryReq)
	twinPend := pending{}
	pollRound(t, twin, twinClk, twinPend, 4, time.Second)

	// The second restart — the torn generation is now interior — must
	// replay the later acknowledgments behind it.
	nw2 := nw.crashRecover()
	got2, ok := nw2.reg.Get("r-test")
	if !ok {
		t.Fatal("run lost in second recovery")
	}
	compareRuns(t, got2, twin, clk, twinClk, pend, twinPend)
}

// TestRecoveryFailureFailsClosed pins the fail-stop contract: when the
// journal does not replay cleanly, the server must refuse to serve and
// to checkpoint — checkpointing a partial registry would prune the
// generations that still hold the un-replayed acknowledged state.
func TestRecoveryFailureFailsClosed(t *testing.T) {
	clk := newVclock()
	dir := t.TempDir()
	w := newWorld(t, dir, clk, true)
	run := w.create("r-test", recoveryReq)
	pollRound(t, run, clk, pending{}, 2, time.Second)
	// Poison the journal: a CRC-valid record whose sequence leaves a
	// per-run gap, as genuine mid-file loss of acknowledged records
	// would.
	w.jr.AppendPoll("r-test", 99, clk.now().UnixNano(), 0, nil)
	if err := w.jr.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	w.jr.Close()

	jr, err := durable.Open(dir)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer jr.Close()
	before, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	srv := New(Options{GCInterval: -1, Now: clk.now, Journal: jr, SnapshotEvery: time.Minute})
	defer srv.Close()
	if srv.RecoveryErr() == nil {
		t.Fatal("recovery reported success over a journal with a sequence gap")
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/runs", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("GET /v1/runs after failed recovery = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200 (liveness stays up for the operator)", rec.Code)
	}
	if err := srv.Checkpoint(); err == nil {
		t.Fatal("checkpoint ran after failed recovery")
	}
	after, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("journal directory changed after failed recovery:\n before %v\n after  %v", before, after)
	}
}

// testdata/hsn2 holds one snapshot, written by the last version that
// kept every worker's phase-1 state past an outer 2phases run's phase
// switch: a run of hsn2Request polled hsn2Rounds rounds by pollRound
// (one second a poll), by which point it has switched, then
// checkpointed.
var hsn2Request = CreateRunRequest{Kernel: KernelOuter, Strategy: "2phases", N: 8, P: 3, Seed: 5, Batch: 2, Beta: 0.5}

const (
	hsn2Rounds = 3
	hsn2File   = "snap-r-hsn2-000000000000000a.snap"
)

func hsn2Snapshot(tb testing.TB) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "hsn2", hsn2File))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestRecoverSwitchedSnapshotWithPhase1State: the hsn2 snapshot
// restores as it is — its driver state re-encodes byte for byte, though
// a run switched today writes every worker absent — and drains to the
// ledger of the uninterrupted twin.
func TestRecoverSwitchedSnapshotWithPhase1State(t *testing.T) {
	raw := hsn2Snapshot(t)
	snap, err := durable.DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, hsn2File), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	clk := newVclock()
	clk.adv(time.Duration(hsn2Rounds*hsn2Request.P) * time.Second)
	w := newWorld(t, dir, clk, true)
	if _, err := w.opts.Recover(w.reg, w.jr); err != nil {
		t.Fatalf("recover: %v", err)
	}
	got, ok := w.reg.Get(snap.ID)
	if !ok {
		t.Fatal("run lost in recovery")
	}
	if again := appendState(got.Host.drv); !bytes.Equal(again, snap.Driver) {
		t.Fatalf("restored driver state re-encodes to %d bytes, not the %d restored", len(again), len(snap.Driver))
	}

	twin, twinClk := twinRun(t, hsn2Request)
	twinPend := pending{}
	pollRound(t, twin, twinClk, twinPend, hsn2Rounds, time.Second)
	if st := twin.Host.Stats(); st.Phase1Tasks >= st.Total-st.Remaining {
		t.Fatalf("the twin has served no phase-2 task after %d rounds", hsn2Rounds)
	}
	if today := appendState(twin.Host.drv); len(today) >= len(snap.Driver) {
		t.Fatalf("the twin's driver state is %d bytes, the fixture's %d: the fixture carries no phase-1 state", len(today), len(snap.Driver))
	}
	pend := pending{}
	for wk, ts := range twinPend {
		pend[wk] = append([]core.Task(nil), ts...)
	}
	compareRuns(t, got, twin, clk, twinClk, pend, twinPend)
}

// TestRecoverRefusesOpLogSnapshot pins the fail-stop on a snapshot of
// the retired op-log format (testdata/hsn1 holds one, written by the
// last version that used it): recovery over it fails, naming the file,
// with the gate closed; an import of a stream carrying it answers 409
// with the same message; and scavenging the directory fails too. None
// of them may fall back to an older snapshot or the journal alone.
func TestRecoverRefusesOpLogSnapshot(t *testing.T) {
	const name = "snap-r-hsn1-0000000000000005.snap"
	old, err := os.ReadFile(filepath.Join("testdata", "hsn1", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), old, 0o644); err != nil {
		t.Fatal(err)
	}
	jr, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	srv := New(Options{GCInterval: -1, Journal: jr})
	defer srv.Close()
	rerr := srv.RecoveryErr()
	if !errors.Is(rerr, durable.ErrOpLogSnapshot) || !strings.Contains(rerr.Error(), name) {
		t.Fatalf("RecoveryErr() = %v, want %v naming %s", rerr, durable.ErrOpLogSnapshot, name)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/runs", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("GET /v1/runs after refused recovery = %d, want 503", rec.Code)
	}
	if _, err := scavenge(dir, "r-hsn1"); !errors.Is(err, durable.ErrOpLogSnapshot) {
		t.Fatalf("scavenge = %v, want %v", err, durable.ErrOpLogSnapshot)
	}

	// A transfer stream embedding it: magic, flag 1, length, snapshot.
	stream := binary.LittleEndian.AppendUint32(append([]byte("HTX1"), 1), uint32(len(old)))
	stream = append(stream, old...)
	dst := New(Options{GCInterval: -1})
	defer dst.Close()
	rec = httptest.NewRecorder()
	dst.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/runs/import", bytes.NewReader(stream)))
	if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), durable.ErrOpLogSnapshot.Error()) {
		t.Fatalf("import of an op-log snapshot = %d %s, want 409 with %q", rec.Code, rec.Body, durable.ErrOpLogSnapshot)
	}
	if n := dst.Registry().Len(); n != 0 {
		t.Fatalf("registry holds %d runs after the refused import", n)
	}
}
