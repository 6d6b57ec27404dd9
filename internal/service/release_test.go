package service

import (
	"fmt"
	"reflect"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/durable"
)

// TestDoneReleasesPollScratch: a poll answered done ends the run for
// good, so it releases the polling worker's scratch and the run's
// empty grant table. A run half driven, then finished where it was,
// after a crash recovery or after a migration import — leases off and
// on, at p=64 and p=130 — keeps neither once drained, and still answers
// as before: a re-poll says done without allocating, and a stale report
// draws the usual diagnosis.
func TestDoneReleasesPollScratch(t *testing.T) {
	for _, tc := range []struct {
		name string
		// move hands the half-driven run to the host that finishes it.
		move func(t *testing.T, w *world, run *Run) *Run
	}{
		{"live", func(_ *testing.T, _ *world, run *Run) *Run { return run }},
		{"recovered", func(t *testing.T, w *world, run *Run) *Run {
			got, ok := w.crashRecover().reg.Get(run.ID)
			if !ok {
				t.Fatal("run lost in recovery")
			}
			return got
		}},
		{"imported", func(t *testing.T, w *world, run *Run) *Run {
			if !run.Host.Fence() {
				t.Fatal("source refused the fence")
			}
			dst := New(Options{GCInterval: -1, Now: w.clk.now})
			t.Cleanup(dst.Close)
			got, err := dst.ImportRun(durable.AppendTransfer(nil, run.snapshot(), nil))
			if err != nil {
				t.Fatalf("import: %v", err)
			}
			return got
		}},
	} {
		for _, p := range []int{64, 130} {
			for _, lease := range []float64{0, 30} {
				t.Run(fmt.Sprintf("%s/p%d/lease%g", tc.name, p, lease), func(t *testing.T) {
					w := newWorld(t, t.TempDir(), newVclock(), true)
					run := w.create("r-done", CreateRunRequest{
						Kernel: KernelOuter, Strategy: "2phases", N: 24, P: p, Seed: 3, Batch: 2, LeaseSeconds: lease,
					})
					sc := newScript(p)
					sc.drive(t, run, w.clk, p/2)
					run = tc.move(t, w, run)
					sc.drive(t, run, w.clk, 0)
					checkReleased(t, run.Host)
				})
			}
		}
	}
}

// checkReleased asserts that a drained host holds no worker's poll
// scratch and no grant table and keeps its trace packed, then polls it
// once more: done at no allocation, and a stale report of task 0 is not
// outstanding.
func checkReleased(t *testing.T, h *Host) {
	t.Helper()
	for w := range h.slots {
		if !reflect.DeepEqual(h.slots[w], workerSlot{}) {
			t.Errorf("worker %d keeps its poll scratch after done", w)
		}
	}
	if g := &h.outstanding; g.slots != nil {
		t.Errorf("the host keeps a %d-slot grant table after done", len(g.slots))
	}
	if !h.tr.Packed() {
		t.Error("the drained run's trace is not packed")
	}
	var status string
	var err error
	allocs := testing.AllocsPerRun(100, func() { _, status, err = h.Next(0, nil) })
	if allocs != 0 || err != nil || status != StatusDone {
		t.Errorf("re-poll of a drained run: status %q, error %v, %.1f allocs; want done, none, 0", status, err, allocs)
	}
	const stale = "task 0 is not outstanding"
	if _, _, err := h.Next(1, []core.Task{0}); err == nil || err.Error() != stale {
		t.Errorf("stale report on a drained run: %v, want %q", err, stale)
	}
}
