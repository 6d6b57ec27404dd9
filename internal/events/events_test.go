package events

import (
	"encoding/json"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

func publishN(st *Stream, n int) {
	for i := 0; i < n; i++ {
		st.Publish(Event{Type: TypeComplete, TimeNs: int64(i), Worker: i % 4, Task: int64(i)})
	}
}

func TestPublishSubscribeOrder(t *testing.T) {
	b := NewBus(64)
	st := b.Run("r1")
	sub := st.Subscribe(0, 64)
	publishN(st, 10)
	evs, dropped, closed := sub.Poll(nil)
	if dropped != 0 || closed {
		t.Fatalf("dropped=%d closed=%v", dropped, closed)
	}
	if len(evs) != 10 {
		t.Fatalf("got %d events, want 10", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) || e.Task != int64(i) || e.Run != "r1" {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
	if got := st.Published(); got != 10 {
		t.Fatalf("published %d, want 10", got)
	}
	if got := b.Published(); got != 10 {
		t.Fatalf("bus published %d, want 10", got)
	}
}

func TestResumeFromRing(t *testing.T) {
	b := NewBus(64)
	st := b.Run("r1")
	publishN(st, 20)
	// A late subscriber resuming from seq 5 backfills 6..20 from the
	// retention ring.
	sub := st.Subscribe(5, 64)
	evs, dropped, _ := sub.Poll(nil)
	if dropped != 0 {
		t.Fatalf("dropped %d resuming inside the window", dropped)
	}
	if len(evs) != 15 || evs[0].Seq != 6 || evs[14].Seq != 20 {
		t.Fatalf("backfill = %d events [%d..%d]", len(evs), evs[0].Seq, evs[len(evs)-1].Seq)
	}
}

func TestResumeGapCountsDrops(t *testing.T) {
	b := NewBus(16) // ring holds the last 16 events
	st := b.Run("r1")
	publishN(st, 40) // seqs 25..40 retained
	sub := st.Subscribe(0, 64)
	evs, dropped, _ := sub.Poll(nil)
	if dropped != 24 {
		t.Fatalf("dropped %d, want 24 (evicted from the ring)", dropped)
	}
	if len(evs) != 16 || evs[0].Seq != 25 || evs[15].Seq != 40 {
		t.Fatalf("backfill = %d events starting at %d", len(evs), evs[0].Seq)
	}
	if seen, drops := uint64(len(evs)), dropped; seen+drops != st.Published() {
		t.Fatalf("seen %d + drops %d != published %d", seen, drops, st.Published())
	}
}

func TestBackfillOverflowCountsDrops(t *testing.T) {
	b := NewBus(64)
	st := b.Run("r1")
	publishN(st, 40)
	// Subscriber buffer smaller than the backlog: keep the newest 8,
	// count the other 32 as drops.
	sub := st.Subscribe(0, 8)
	evs, dropped, _ := sub.Poll(nil)
	if len(evs) != 8 || evs[0].Seq != 33 {
		t.Fatalf("kept %d events starting at %d, want newest 8", len(evs), evs[0].Seq)
	}
	if dropped != 32 {
		t.Fatalf("dropped %d, want 32", dropped)
	}
}

func TestStalledSubscriberDropsNeverBlocks(t *testing.T) {
	b := NewBus(256)
	st := b.Run("r1")
	sub := st.Subscribe(0, 8) // never drained
	publishN(st, 100)
	if got := sub.Dropped(); got != 92 {
		t.Fatalf("dropped %d, want 92", got)
	}
	evs, dropped, _ := sub.Poll(nil)
	if len(evs) != 8 || dropped != 92 {
		t.Fatalf("poll: %d events, %d drops", len(evs), dropped)
	}
	if uint64(len(evs))+dropped != st.Published() {
		t.Fatal("seen + drops != published")
	}
	if b.Dropped() != 92 {
		t.Fatalf("bus dropped %d, want 92", b.Dropped())
	}
}

func TestSweptClosesSubscribers(t *testing.T) {
	b := NewBus(64)
	st := b.Run("r1")
	sub := st.Subscribe(0, 64)
	publishN(st, 3)
	b.Swept("r1", 99)
	evs, _, closed := sub.Poll(nil)
	if !closed {
		t.Fatal("subscriber not closed by sweep")
	}
	if len(evs) != 4 || evs[3].Type != TypeRunSwept || evs[3].TimeNs != 99 {
		t.Fatalf("final events = %+v", evs)
	}
	if _, ok := b.Lookup("r1"); ok {
		t.Fatal("stream survived the sweep")
	}
	// Late subscribers to a recreated id get a fresh stream; the
	// swept stream itself rejects publishes.
	st.Publish(Event{Type: TypeAssign})
	if st.Published() != 4 {
		t.Fatal("closed stream accepted a publish")
	}
	if late := st.Subscribe(0, 8); late != nil {
		if _, _, closed := late.Poll(nil); !closed {
			t.Fatal("subscription to a closed stream not born closed")
		}
	}
}

func TestFirehoseLiveOnly(t *testing.T) {
	b := NewBus(64)
	r1, r2 := b.Run("r1"), b.Run("r2")
	publishN(r1, 5) // before anyone listens: skipped entirely
	fh := b.SubscribeFirehose(64)
	publishN(r1, 2)
	publishN(r2, 3)
	evs, dropped, _ := fh.Poll(nil)
	if dropped != 0 || len(evs) != 5 {
		t.Fatalf("firehose saw %d events (%d drops), want 5 live", len(evs), dropped)
	}
	// Firehose sequence numbers are its own, independent of the runs'.
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("firehose seq %d at index %d", e.Seq, i)
		}
	}
	if evs[0].Run != "r1" || evs[2].Run != "r2" {
		t.Fatalf("runs = %s, %s", evs[0].Run, evs[2].Run)
	}
	fh.Close()
	publishN(r1, 1)
	if evs, _, _ := fh.Poll(nil); len(evs) != 0 {
		t.Fatal("closed firehose subscriber still receiving")
	}
	if b.Subscribers() != 0 {
		t.Fatalf("subscribers = %d after close", b.Subscribers())
	}
}

func TestTypeJSONRoundTrip(t *testing.T) {
	for ty := TypeRunCreated; ty <= TypeRunSwept; ty++ {
		e := Event{Seq: 7, TimeNs: 123, Run: "r", Type: ty, Worker: 2, Task: 5, Count: 3, Blocks: 1, State: "draining"}
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		var out Event
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if out != e {
			t.Fatalf("round trip: %+v != %+v", out, e)
		}
	}
	var ty Type
	if err := json.Unmarshal([]byte(`"bogus"`), &ty); err == nil {
		t.Fatal("unknown type name accepted")
	}
}

// TestConcurrentPublishDrain exercises the locking under the race
// detector: publishers on several streams, a firehose reader, per-run
// readers resubscribing mid-flight.
func TestConcurrentPublishDrain(t *testing.T) {
	b := NewBus(128)
	const runs, perRun = 4, 500
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		st := b.Run(string(rune('a' + r)))
		wg.Add(2)
		go func(st *Stream) {
			defer wg.Done()
			publishN(st, perRun)
		}(st)
		go func(st *Stream) {
			defer wg.Done()
			sub := st.Subscribe(0, 32)
			var seen, drops uint64
			var buf []Event
			for i := 0; ; i++ {
				var evs []Event
				evs, drops, _ = sub.Poll(buf[:0])
				seen += uint64(len(evs))
				if seen+drops >= perRun {
					break
				}
				<-sub.Ready()
			}
			sub.Close()
			if seen+drops != perRun {
				t.Errorf("seen %d + drops %d != %d", seen, drops, perRun)
			}
		}(st)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		fh := b.SubscribeFirehose(64)
		for i := 0; i < 50; i++ {
			fh.Poll(nil)
		}
		fh.Close()
	}()
	wg.Wait()
	if got := b.Published(); got != runs*perRun {
		t.Fatalf("published %d, want %d", got, runs*perRun)
	}
}

// TestRingRecordSize pins the retention ring's record at 32 bytes: a
// run's eager 1,024-slot ring is 32 KB.
func TestRingRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(rec{}); got != 32 {
		t.Fatalf("ring record is %d bytes, want 32", got)
	}
}

// variedEvent is the i-th of a sequence that reaches every field of a
// packed record: every type, interned states, times that step back,
// -1 workers and tasks, wide counts.
func variedEvent(i int) Event {
	e := Event{Type: Type(i % 7), TimeNs: int64(i)*7919 - int64(i%5)*100_000, Worker: i%9 - 1, Task: int64(i*i) - 1}
	switch e.Type {
	case TypeAssign:
		e.Count, e.Blocks = i%300, i*1000
	case TypeState, TypeRunCreated:
		e.State = []string{"created", "draining", "complete"}[i%3]
	}
	return e
}

// publishVaried publishes events from..to-1 of variedEvent's sequence.
func publishVaried(st *Stream, from, to int) {
	for i := from; i < to; i++ {
		st.Publish(variedEvent(i))
	}
}

// backfill is what a subscription from after sees at once: its events
// and its drop count.
func backfill(st *Stream, after uint64, buffer int) ([]Event, uint64) {
	sub := st.Subscribe(after, buffer)
	evs, dropped, _ := sub.Poll(nil)
	sub.Close()
	return evs, dropped
}

// TestPackKeepsTheWindow: a packed stream backfills every subscription
// as its never-packed twin does, publishes on from where it stood, and
// a closed stream does not pack.
func TestPackKeepsTheWindow(t *testing.T) {
	for _, buffer := range []int{1, 16, 1024} {
		capacity := NewBus(buffer).Buffer()
		for _, tc := range []struct {
			name      string
			published int
		}{
			{"none", 0},
			{"one", 1},
			{"cap-1", capacity - 1},
			{"cap", capacity},
			{"5cap", 5 * capacity},
		} {
			plain, packed := NewBus(buffer).Run("r"), NewBus(buffer).Run("r")
			publishVaried(plain, 0, tc.published)
			publishVaried(packed, 0, tc.published)
			packed.Pack()
			if got, ring := packed.RetainedBytes(), plain.RetainedBytes(); got >= ring {
				t.Errorf("buffer %d, %s: the packed window holds %d bytes, the ring %d", buffer, tc.name, got, ring)
			}
			pub := uint64(tc.published)
			for _, after := range []uint64{0, pub / 2, pub} {
				for _, subBuf := range []int{1, 16, 1024} {
					want, wantDrops := backfill(plain, after, subBuf)
					got, drops := backfill(packed, after, subBuf)
					if drops != wantDrops || !slices.Equal(got, want) {
						t.Fatalf("buffer %d, %s, after %d, subscriber buffer %d: packed backfill %d events, %d drops; want %d, %d",
							buffer, tc.name, after, subBuf, len(got), drops, len(want), wantDrops)
					}
				}
			}
			// Publishing unpacks: the sequence and the window go on.
			publishVaried(plain, tc.published, tc.published+3)
			publishVaried(packed, tc.published, tc.published+3)
			if packed.Published() != pub+3 || packed.RetainedBytes() != plain.RetainedBytes() {
				t.Fatalf("buffer %d, %s: after publishing, %d published and %d bytes retained; want %d and %d",
					buffer, tc.name, packed.Published(), packed.RetainedBytes(), pub+3, plain.RetainedBytes())
			}
			want, wantDrops := backfill(plain, 0, 1024)
			if got, drops := backfill(packed, 0, 1024); drops != wantDrops || !slices.Equal(got, want) {
				t.Fatalf("buffer %d, %s: after publishing, backfill %d events, %d drops; want %d, %d",
					buffer, tc.name, len(got), drops, len(want), wantDrops)
			}
		}
	}

	st := NewBus(16).Run("r")
	publishVaried(st, 0, 5)
	before := st.RetainedBytes()
	st.Close()
	st.Pack()
	if got := st.RetainedBytes(); got != before {
		t.Fatalf("Pack on a closed stream: %d bytes retained, want %d", got, before)
	}
}
