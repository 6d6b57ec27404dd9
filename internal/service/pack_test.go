package service

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hetsched/internal/durable"
	"hetsched/internal/events"
)

// TestCompleteRunComesBackPacked: a run drained before it moves comes
// back with its trace packed, whether recovery replays the journal,
// restores a snapshot of the drained run, or a migration imports it;
// its trace renders as before, and an imported run's new event stream
// holds no ring.
func TestCompleteRunComesBackPacked(t *testing.T) {
	recovered := func(t *testing.T, w *world, run *Run) *Run {
		got, ok := w.crashRecover().reg.Get(run.ID)
		if !ok {
			t.Fatal("run lost in recovery")
		}
		return got
	}
	for _, tc := range []struct {
		name string
		move func(t *testing.T, w *world, run *Run) *Run
	}{
		{"journal", recovered},
		{"snapshot", func(t *testing.T, w *world, run *Run) *Run {
			if err := w.jr.WriteSnapshot(run.snapshot()); err != nil {
				t.Fatal(err)
			}
			return recovered(t, w, run)
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
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, t.TempDir(), newVclock(), true)
			run := w.create("r-packed", CreateRunRequest{
				Kernel: KernelOuter, Strategy: "2phases", N: 24, P: 8, Seed: 3, Batch: 2,
			})
			driveScript(t, run, w.clk, 0)
			want := run.Host.Trace()
			h := tc.move(t, w, run).Host
			if !h.tr.Packed() {
				t.Error("the drained run comes back with its trace unpacked")
			}
			if got := h.Trace(); !reflect.DeepEqual(got, want) {
				t.Errorf("the drained run comes back rendering %+v, want %+v", got.Segments, want.Segments)
			}
			if h.ev != nil {
				if got := h.ev.RetainedBytes(); got != 0 {
					t.Errorf("the drained run's new event stream retains %d bytes, want 0", got)
				}
			}
		})
	}
}

// TestPackHammer: subscribers attach to a run's stream and detach,
// over and over, while the run drains and packs its history, after it
// has, and until the sweep closes the stream. Every event a subscriber
// sees is the one the stream published under its sequence number, in
// order, and a subscriber's seen + dropped is what the stream had
// published when it detached: bounded by the counts read around its
// Close, and equal to the final count for one the sweep closed.
func TestPackHammer(t *testing.T) {
	clk := newVclock()
	bus := events.NewBus(64)
	opts := Options{Events: bus, Now: clk.now}
	q := CreateRunRequest{Kernel: KernelOuter, Strategy: "2phases", N: 16, P: 8, Seed: 5, Batch: 1}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	run, err := opts.NewRun("hammer", &q)
	if err != nil {
		t.Fatal(err)
	}
	st := run.Host.ev
	ref := st.Subscribe(0, 1<<12) // sees every event: the run publishes fewer

	var (
		mu       sync.Mutex
		seenBySq = map[uint64]events.Event{}
		attaches atomic.Int64
		wg       sync.WaitGroup
	)
	const subscribers = 8
	for g := 0; g < subscribers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				sub := st.Subscribe(0, 4+g)
				attaches.Add(1)
				var seen []events.Event
				var dropped uint64
				closed := false
				for i := 0; i <= g && !closed; i++ {
					seen, dropped, closed = sub.Poll(seen)
					runtime.Gosched()
				}
				lo := st.Published()
				sub.Close()
				seen, dropped, _ = sub.Poll(seen)
				hi := st.Published()
				n := uint64(len(seen)) + dropped
				if closed && n == 0 {
					return // born closed: the stream was swept before it attached
				}
				if closed && n != hi {
					t.Errorf("subscriber %d closed by the sweep: seen %d + dropped %d != published %d", g, len(seen), dropped, hi)
				}
				if n < lo || n > hi {
					t.Errorf("subscriber %d: seen %d + dropped %d outside published %d..%d", g, len(seen), dropped, lo, hi)
				}
				mu.Lock()
				for i, e := range seen {
					if i > 0 && e.Seq <= seen[i-1].Seq {
						t.Errorf("subscriber %d saw seq %d after %d", g, e.Seq, seen[i-1].Seq)
					}
					if prev, ok := seenBySq[e.Seq]; ok && prev != e {
						t.Errorf("seq %d seen as %+v and as %+v", e.Seq, prev, e)
					}
					seenBySq[e.Seq] = e
				}
				mu.Unlock()
			}
		}(g)
	}

	driveScript(t, run, clk, 0)
	if !run.Host.tr.Packed() || st.RetainedBytes() >= 64*32 {
		t.Errorf("the drained run is not packed: trace packed %v, window %d bytes", run.Host.tr.Packed(), st.RetainedBytes())
	}
	for base := attaches.Load(); attaches.Load() < base+2*subscribers; {
		runtime.Gosched() // let every subscriber attach to the packed stream
	}
	bus.Swept("hammer", clk.now().UnixNano())
	wg.Wait()

	all, dropped, closed := ref.Poll(nil)
	if dropped != 0 || !closed || uint64(len(all)) != st.Published() {
		t.Fatalf("reference subscriber: %d events, %d dropped, closed %v; want all %d", len(all), dropped, closed, st.Published())
	}
	for sq, e := range seenBySq {
		if want := all[sq-1]; e != want {
			t.Errorf("seq %d seen as %+v, published as %+v", sq, e, want)
		}
	}
}
