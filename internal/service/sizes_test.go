package service

import (
	"os"
	"testing"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/durable"
)

// The two sizes below are counted, not timed: the benchmark's poll run
// (outer 2phases, n=128, p=64, batch 1, fixed seed) driven by a
// round-robin script on the injected clock, so they repeat exactly on
// every machine. They count, for one run, what the benchmark measures
// over many as durable.bytes_per_poll and durable.snapshot_bytes.

// sizedRun creates the benchmark's poll run in a journaled world.
func sizedRun(t *testing.T) (*world, *Run) {
	t.Helper()
	w := newWorld(t, t.TempDir(), newVclock(), true)
	return w, w.create("r0", CreateRunRequest{
		Kernel: KernelOuter, Strategy: "2phases", N: 128, P: 64, Seed: 1, Batch: 1,
	})
}

// script is the round-robin poll script: the batch each worker holds,
// who has been told done, and whose turn it is.
type script struct {
	held    [][]core.Task
	done    []bool
	left, w int
}

func newScript(p int) *script {
	return &script{held: make([][]core.Task, p), done: make([]bool, p), left: p}
}

// drive polls run round-robin, skipping workers already told done, each
// poll reporting the batch the worker holds and advancing the clock
// 20µs. It stops after maxPolls polls (0: once every worker has been
// told done) and returns the polls made. A later drive resumes where it
// stopped, on the same run or on its copy on another host.
func (s *script) drive(tb testing.TB, run *Run, clk *vclock, maxPolls int) int {
	tb.Helper()
	polls := 0
	for s.left > 0 && (maxPolls == 0 || polls < maxPolls) {
		for s.done[s.w] {
			s.w = (s.w + 1) % run.P
		}
		clk.adv(20 * time.Microsecond)
		a, status, err := run.Host.Next(s.w, s.held[s.w])
		if err != nil {
			tb.Fatalf("poll %d, worker %d: %v", polls, s.w, err)
		}
		s.held[s.w] = append(s.held[s.w][:0], a.Tasks...)
		if status == StatusDone {
			s.done[s.w] = true
			s.left--
		}
		polls++
		s.w = (s.w + 1) % run.P
	}
	return polls
}

// driveScript runs a fresh script on run.
func driveScript(tb testing.TB, run *Run, clk *vclock, maxPolls int) int {
	tb.Helper()
	return newScript(run.P).drive(tb, run, clk, maxPolls)
}

// scriptPolls is the length of the drained script.
const scriptPolls = 2414

// TestJournalBytesPerPoll pins the journal a drained run leaves behind,
// per poll: its create record and one record per poll, each framed.
func TestJournalBytesPerPoll(t *testing.T) {
	const want = 93018 // bytes in the journal directory
	w, run := sizedRun(t)
	if polls := driveScript(t, run, w.clk, 0); polls != scriptPolls {
		t.Fatalf("script drained in %d polls, want %d", polls, scriptPolls)
	}
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		t.Fatal(err)
	}
	var bytes int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		bytes += info.Size()
	}
	if bytes != want {
		t.Errorf("journal holds %d bytes = %.4f per poll, want %d = %.4f; a change that moves this states the new value in CHANGES.md",
			bytes, float64(bytes)/scriptPolls, want, float64(want)/scriptPolls)
	}
}

// TestSnapshotBytes pins the snapshot of the run at 90% of its script,
// which is where the benchmark's recover workload hands a run over, and
// the driver state inside it there and at 50%. The run has switched to
// its random phase by 90%, so the driver state there no longer carries
// the per-worker index sets of phase 1.
func TestSnapshotBytes(t *testing.T) {
	for _, tc := range []struct {
		polls            int
		snapshot, driver int // bytes; 0: not pinned
	}{
		{scriptPolls / 2, 0, 20690},
		{scriptPolls * 9 / 10, 27369, 4410},
	} {
		w, run := sizedRun(t)
		driveScript(t, run, w.clk, tc.polls)
		snap := run.snapshot()
		if got := len(snap.Driver); got != tc.driver {
			t.Errorf("driver state after %d polls is %d bytes, want %d; a change that moves this states the new value in CHANGES.md", tc.polls, got, tc.driver)
		}
		if got := len(durable.AppendSnapshot(nil, snap)); tc.snapshot != 0 && got != tc.snapshot {
			t.Errorf("snapshot after %d polls is %d bytes, want %d; a change that moves this states the new value in CHANGES.md", tc.polls, got, tc.snapshot)
		}
	}
}

// TestTraceBytes pins the trace the drained run keeps in memory: its
// varint records and their int64 ends, beside the segment count.
// As 40-byte trace.Segments the same trace took 88,880 bytes.
func TestTraceBytes(t *testing.T) {
	const segments, want = 2222, 31108
	w, run := sizedRun(t)
	driveScript(t, run, w.clk, 0)
	if got := run.Host.tr.Len(); got != segments {
		t.Errorf("drained run has %d trace segments, want %d", got, segments)
	}
	if got := len(run.Host.tr.Records()) + 8*len(run.Host.tr.Ends()); got != want {
		t.Errorf("drained run keeps %d trace bytes = %.2f per segment, want %d; a change that moves this states the new value in CHANGES.md",
			got, float64(got)/segments, want)
	}
}
