package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"hetsched/internal/durable"
)

// TestTraceRenderingUnchanged pins what a run's trace renders to —
// FNV-64a of the GET /v1/runs/{id}/trace body and of Gantt(72) — for
// the sized run drained live, recovered, imported, and recovered on a
// clock behind the run's start (which gives negative segment starts).
// The pins were taken before the trace was kept in nanoseconds; the
// in-memory and snapshot forms may change, what they render to may not.
func TestTraceRenderingUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name        string
		body, gantt string
		// finish drives the sized run to drain, moving it on the way.
		finish func(t *testing.T, w *world, run *Run, sc *script) *Run
	}{
		{"live", "7803b268b41f2a89", "3285db011c50dd09", func(t *testing.T, w *world, run *Run, sc *script) *Run {
			sc.drive(t, run, w.clk, 0)
			return run
		}},
		{"recovered-50", "7803b268b41f2a89", "3285db011c50dd09", func(t *testing.T, w *world, run *Run, sc *script) *Run {
			sc.drive(t, run, w.clk, scriptPolls/4)
			if err := w.reg.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			sc.drive(t, run, w.clk, scriptPolls/4)
			run = mustGet(t, w.crashRecover(), run.ID)
			sc.drive(t, run, w.clk, 0)
			return run
		}},
		{"imported-90", "7803b268b41f2a89", "3285db011c50dd09", func(t *testing.T, w *world, run *Run, sc *script) *Run {
			sc.drive(t, run, w.clk, scriptPolls*9/10)
			if !run.Host.Fence() {
				t.Fatal("source refused the fence")
			}
			dst := New(Options{GCInterval: -1, Now: w.clk.now})
			t.Cleanup(dst.Close)
			run, err := dst.ImportRun(durable.AppendTransfer(nil, run.snapshot(), nil))
			if err != nil {
				t.Fatalf("import: %v", err)
			}
			sc.drive(t, run, w.clk, 0)
			return run
		}},
		{"recovered-behind", "c3761ab44dc62b80", "511cfd108f331b4a", func(t *testing.T, w *world, run *Run, sc *script) *Run {
			sc.drive(t, run, w.clk, scriptPolls/2)
			if err := w.reg.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			// The restarted process's clock reads an hour before the run
			// started: every later segment starts at a negative offset.
			w.clk.t = run.Host.start.Add(-time.Hour)
			run = mustGet(t, w.crashRecover(), run.ID)
			sc.drive(t, run, w.clk, 0)
			return run
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, run := sizedRun(t)
			run = tc.finish(t, w, run, newScript(run.P))
			tr := run.Host.Trace()
			var body bytes.Buffer
			if err := json.NewEncoder(&body).Encode(TraceResponse{ID: run.ID, Trace: tr}); err != nil {
				t.Fatal(err)
			}
			if got := fnv64a(body.Bytes()); got != tc.body {
				t.Errorf("trace body of %d segments hashes to %s, want %s", len(tr.Segments), got, tc.body)
			}
			if got := fnv64a([]byte(tr.Gantt(72))); got != tc.gantt {
				t.Errorf("Gantt(72) hashes to %s, want %s:\n%s", got, tc.gantt, tr.Gantt(72))
			}
			negative := 0
			for _, s := range tr.Segments {
				if s.Start < 0 {
					negative++
				}
			}
			if behind := tc.name == "recovered-behind"; behind != (negative > 0) {
				t.Errorf("%d segments start before the run, want some only after a recovery behind it", negative)
			}
		})
	}
}

func mustGet(t *testing.T, w *world, id string) *Run {
	t.Helper()
	run, ok := w.reg.Get(id)
	if !ok {
		t.Fatalf("run %q lost", id)
	}
	return run
}

func fnv64a(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
