// Package events is the scheduler service's live observability plane:
// a per-run event stream fed by service.Host hooks (assignment,
// completion, reclaim, lease-expiry conflict, state transition, run
// created/swept) plus a global firehose, fanned out to subscribers
// through bounded ring buffers.
//
// The design contract is that publishing never blocks and never grows:
// a publish is O(1) per subscriber — one fixed-size struct copy into a
// preallocated ring under a mutex held for a handful of stores — so a
// slow (or entirely stalled) SSE reader costs the poll hot path a
// bounded constant instead of wedging it. When a subscriber's buffer
// is full the incoming event is counted in its drop counter and
// discarded; the subscriber observes the gap through Poll's drop total
// and the stream's retained ring lets it resume from the last sequence
// number it did see (events older than the retention window are
// reported as drops, never silently skipped).
//
// Determinism: the bus is write-only with respect to the scheduler —
// subscribing, draining or dropping feeds nothing back into the Host —
// so a run's allocation decisions, stats and traces are bit-identical
// with zero or any number of subscribers attached (the cluster harness
// pins this).
package events

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Type discriminates scheduler events.
type Type uint8

const (
	// TypeRunCreated announces a registered run (State carries the
	// initial lifecycle state).
	TypeRunCreated Type = iota
	// TypeAssign is one granted batch: Worker received Count tasks
	// shipping Blocks blocks.
	TypeAssign
	// TypeComplete is one accepted task completion (one event per task,
	// so exactly-once accounting is checkable from the stream alone).
	TypeComplete
	// TypeReclaim is one task taken back from Worker by lease expiry.
	TypeReclaim
	// TypeConflict is a rejected late report: Worker reported Task
	// after its lease expired and the reassignment won (the HTTP 409).
	TypeConflict
	// TypeState is a run lifecycle transition; State is the new state.
	TypeState
	// TypeRunSwept announces the run's removal from the registry; it is
	// the stream's final event.
	TypeRunSwept
)

var typeNames = [...]string{
	TypeRunCreated: "run_created",
	TypeAssign:     "assign",
	TypeComplete:   "complete",
	TypeReclaim:    "reclaim",
	TypeConflict:   "conflict",
	TypeState:      "state",
	TypeRunSwept:   "run_swept",
}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// MarshalJSON encodes the type as its snake_case name — the wire and
// JSONL representation.
func (t Type) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalJSON accepts the snake_case names MarshalJSON emits.
func (t *Type) UnmarshalJSON(b []byte) error {
	for i, name := range typeNames {
		if string(b) == `"`+name+`"` {
			*t = Type(i)
			return nil
		}
	}
	return fmt.Errorf("events: unknown type %s", b)
}

// Event is one scheduler occurrence. It is a fixed-size value — no
// slices, no pointers beyond the two string headers — so publishing
// copies a flat struct and the retention rings are single allocations.
type Event struct {
	// Seq is the event's 1-based sequence number within its stream
	// (per-run streams and the firehose number independently); it is
	// the SSE id and the Last-Event-ID resume cursor.
	Seq uint64 `json:"seq"`
	// TimeNs is the host clock's nanoseconds since the Unix epoch —
	// virtual nanoseconds when a virtual clock is injected.
	TimeNs int64 `json:"t_ns"`
	// Run is the run ID the event belongs to.
	Run  string `json:"run"`
	Type Type   `json:"type"`
	// Worker is the acting worker index, -1 when not worker-scoped.
	Worker int `json:"worker"`
	// Task is the subject task, -1 when the event covers a batch or the
	// whole run.
	Task int64 `json:"task"`
	// Count is the batch size of an assignment.
	Count int `json:"count,omitempty"`
	// Blocks is the communication charge of an assignment.
	Blocks int `json:"blocks,omitempty"`
	// State is the new lifecycle state (TypeState, TypeRunCreated).
	State string `json:"state,omitempty"`
}

// DefaultBuffer is the retention-ring and subscriber-buffer capacity
// used when a caller passes 0.
const DefaultBuffer = 1024

// minBuffer keeps degenerate capacities from making every publish a
// drop.
const minBuffer = 8

func clampBuffer(n int) int {
	if n <= 0 {
		return DefaultBuffer
	}
	if n < minBuffer {
		return minBuffer
	}
	return n
}

// Bus owns the per-run streams and the global firehose. One Bus serves
// one service instance; runs attach through Run and detach through
// Swept.
type Bus struct {
	buffer int

	mu      sync.Mutex
	streams map[string]*Stream

	// The firehose is a bare subscriber set (no retention ring, no
	// resume): per-run publishes forward to it only while factive says
	// somebody is listening, so an idle firehose costs the hot path one
	// atomic load.
	fmu     sync.Mutex
	fsubs   []*Subscriber
	fseq    uint64
	factive atomic.Int32

	published atomic.Uint64
	dropped   atomic.Uint64
	subs      atomic.Int64
}

// NewBus builds a bus whose per-run retention rings hold buffer events
// (0 selects DefaultBuffer). Subscribers choose their own buffer
// capacities at subscribe time.
func NewBus(buffer int) *Bus {
	return &Bus{buffer: clampBuffer(buffer), streams: make(map[string]*Stream)}
}

// Buffer returns the retention-ring capacity.
func (b *Bus) Buffer() int { return b.buffer }

// Run returns the stream for run id, creating it if needed.
func (b *Bus) Run(id string) *Stream {
	b.mu.Lock()
	defer b.mu.Unlock()
	if st, ok := b.streams[id]; ok {
		return st
	}
	st := &Stream{bus: b, run: id, ring: make([]rec, b.buffer), next: 1}
	b.streams[id] = st
	return st
}

// Lookup returns the stream for run id without creating one.
func (b *Bus) Lookup(id string) (*Stream, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.streams[id]
	return st, ok
}

// Swept publishes the run's final TypeRunSwept event, closes the
// stream (ending every per-run subscription) and removes it from the
// bus. Unknown ids are a no-op.
func (b *Bus) Swept(id string, timeNs int64) {
	b.mu.Lock()
	st, ok := b.streams[id]
	if ok {
		delete(b.streams, id)
	}
	b.mu.Unlock()
	if !ok {
		return
	}
	st.Publish(Event{Type: TypeRunSwept, TimeNs: timeNs, Worker: -1, Task: -1})
	st.Close()
}

// SubscribeFirehose attaches a subscriber to the global stream: every
// event of every run, live from now (the firehose keeps no retention
// ring, so there is no resume). buffer 0 selects the bus default.
func (b *Bus) SubscribeFirehose(buffer int) *Subscriber {
	s := newSubscriber(clampBuffer(buffer), b)
	s.detach = b.detachFirehose
	b.fmu.Lock()
	b.fsubs = append(b.fsubs, s)
	b.fmu.Unlock()
	b.factive.Add(1)
	b.subs.Add(1)
	return s
}

func (b *Bus) detachFirehose(s *Subscriber) {
	b.fmu.Lock()
	for i, fs := range b.fsubs {
		if fs == s {
			b.fsubs = append(b.fsubs[:i], b.fsubs[i+1:]...)
			b.factive.Add(-1)
			b.subs.Add(-1)
			break
		}
	}
	b.fmu.Unlock()
}

// forward fans a published event out to the firehose subscribers. The
// fast path — nobody listening — is one atomic load.
func (b *Bus) forward(e Event) {
	if b.factive.Load() == 0 {
		return
	}
	b.fmu.Lock()
	b.fseq++
	e.Seq = b.fseq
	for _, s := range b.fsubs {
		s.offer(e)
	}
	b.fmu.Unlock()
}

// Published returns the total events published across all streams
// since the bus was built (sweeps do not reset it).
func (b *Bus) Published() uint64 { return b.published.Load() }

// Dropped returns the total events dropped at full subscriber buffers,
// bus-wide (including since-closed subscribers).
func (b *Bus) Dropped() uint64 { return b.dropped.Load() }

// Subscribers returns the number of currently attached subscribers
// (per-run and firehose).
func (b *Bus) Subscribers() int { return int(b.subs.Load()) }

// Stream is one run's event sequence: a retention ring of the most
// recent events (the Last-Event-ID resume window) plus the attached
// subscribers. Publishes are serialized by the caller in practice (the
// Host publishes under its own mutex) but the stream is safe for
// concurrent use — SSE handlers subscribe and resume concurrently with
// the poll path.
//
// A stream of a finished run can be packed (Pack): the ring is dropped
// and the window kept as varints, which a subscription's backfill
// decodes; the next publish unpacks it into a ring again.
type Stream struct {
	bus *Bus
	run string

	mu   sync.Mutex
	ring []rec // nil while packed
	// packed is the retained window while the stream is packed, oldest
	// event first, each as appendRec writes it.
	packed []byte
	// states interns the State strings seen on this stream (1-based;
	// rec.state 0 means none), so ring entries stay pointer-free.
	states []string
	next   uint64 // seq the next published event receives
	subs   []*Subscriber
	closed bool
}

// rec is the retention ring's compact storage form of an Event:
// pointer-free, so rings are never scanned by the GC and the
// per-publish ring store carries no write barrier — the idle-stream
// publish cost is a flat 32-byte store. Run is implicit (the stream),
// and so is Seq (the slot: event seq lives at (seq-1) % len(ring));
// State is interned per stream.
type rec struct {
	timeNs int64
	task   int64
	typ    Type
	state  uint8 // 1-based index into Stream.states; 0 = none
	worker int32
	count  int32
	blocks int32
}

// pack converts a stamped event to its ring form (mu held).
func (st *Stream) pack(e Event) rec {
	r := rec{timeNs: e.TimeNs, task: e.Task, typ: e.Type,
		worker: int32(e.Worker), count: int32(e.Count), blocks: int32(e.Blocks)}
	if e.State != "" {
		for i, known := range st.states {
			if known == e.State {
				r.state = uint8(i + 1)
				return r
			}
		}
		// Lifecycle states are a handful of constants; 255 distinct
		// values on one stream would mean a misused State field, and the
		// overflow degrades to "no state" rather than corrupting the ring.
		if len(st.states) < 255 {
			st.states = append(st.states, e.State)
			r.state = uint8(len(st.states))
		}
	}
	return r
}

// unpack restores the wire event with sequence number seq from its ring
// form (mu held).
func (st *Stream) unpack(r rec, seq uint64) Event {
	e := Event{Seq: seq, TimeNs: r.timeNs, Run: st.run, Type: r.typ,
		Worker: int(r.worker), Task: r.task, Count: int(r.count), Blocks: int(r.blocks)}
	if r.state != 0 {
		e.State = st.states[r.state-1]
	}
	return e
}

// appendRec appends r to b in packed form: its time as a zigzag
// varint delta from prevNs (the previous event's), task, type, state,
// worker, count and blocks.
func appendRec(b []byte, r rec, prevNs int64) []byte {
	b = binary.AppendVarint(b, r.timeNs-prevNs)
	b = binary.AppendVarint(b, r.task)
	b = append(b, byte(r.typ), r.state)
	b = binary.AppendVarint(b, int64(r.worker))
	b = binary.AppendVarint(b, int64(r.count))
	return binary.AppendVarint(b, int64(r.blocks))
}

// readRec decodes the packed event at the head of b, which appendRec
// wrote after an event at prevNs, and returns it and the rest of b.
func readRec(b []byte, prevNs int64) (rec, []byte) {
	var r rec
	d, n := binary.Varint(b)
	r.timeNs, b = prevNs+d, b[n:]
	r.task, n = binary.Varint(b)
	r.typ, r.state, b = Type(b[n]), b[n+1], b[n+2:]
	var v [3]int64
	for i := range v {
		v[i], n = binary.Varint(b)
		b = b[n:]
	}
	r.worker, r.count, r.blocks = int32(v[0]), int32(v[1]), int32(v[2])
	return r, b
}

// window returns the oldest retained sequence number given published
// events: the retention window is the newest Buffer of them.
func (st *Stream) window(published uint64) uint64 {
	if n := uint64(st.bus.buffer); published > n {
		return published - n + 1
	}
	return 1
}

// Pack keeps the retention window as varints in place of the ring, for
// a stream whose run will publish little or nothing more. Subscribe
// decodes the window on demand and the next publish unpacks it, so what
// a subscriber sees and its drop count do not change. A packed or
// closed stream is left as it is.
func (st *Stream) Pack() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed || st.ring == nil {
		return
	}
	var b []byte
	prev := int64(0)
	for seq := st.window(st.next - 1); seq < st.next; seq++ {
		r := st.ring[int((seq-1)%uint64(len(st.ring)))]
		b, prev = appendRec(b, r, prev), r.timeNs
	}
	st.packed, st.ring = bytes.Clone(b), nil
}

// unpackRing rebuilds the ring of a packed stream (mu held).
func (st *Stream) unpackRing() {
	st.ring = make([]rec, st.bus.buffer)
	b, prev := st.packed, int64(0)
	for seq := st.window(st.next - 1); seq < st.next; seq++ {
		var r rec
		r, b = readRec(b, prev)
		st.ring[int((seq-1)%uint64(len(st.ring)))], prev = r, r.timeNs
	}
	st.packed = nil
}

// RetainedBytes returns the bytes the retention window holds: 32 per
// ring slot, or the packed window's length.
func (st *Stream) RetainedBytes() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ring == nil {
		return len(st.packed)
	}
	return len(st.ring) * int(unsafe.Sizeof(rec{}))
}

// RunID returns the stream's run identifier.
func (st *Stream) RunID() string { return st.run }

// Publish stamps e with the stream's run id, timestamp-preserving, and
// the next sequence number, stores it in the retention ring, offers it
// to every subscriber (full buffers count a drop, never block) and
// forwards it to the firehose. Publishing to a closed stream is a
// no-op.
func (st *Stream) Publish(e Event) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	if st.ring == nil {
		st.unpackRing()
	}
	e.Run = st.run
	e.Seq = st.next
	st.next++
	st.ring[int((e.Seq-1)%uint64(len(st.ring)))] = st.pack(e)
	for _, s := range st.subs {
		s.offer(e)
	}
	st.mu.Unlock()
	st.bus.published.Add(1)
	st.bus.forward(e)
}

// PublishBatch publishes evs in order under one lock acquisition —
// equivalent to calling Publish per element, but the per-poll flush
// path of service.Host pays the stream synchronization once per batch
// the same way batching amortizes the master round-trip.
func (st *Stream) PublishBatch(evs []Event) {
	if len(evs) == 0 {
		return
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	if st.ring == nil {
		st.unpackRing()
	}
	for i := range evs {
		evs[i].Run = st.run
		evs[i].Seq = st.next
		st.next++
		st.ring[int((evs[i].Seq-1)%uint64(len(st.ring)))] = st.pack(evs[i])
		for _, s := range st.subs {
			s.offer(evs[i])
		}
	}
	st.mu.Unlock()
	st.bus.published.Add(uint64(len(evs)))
	if st.bus.factive.Load() != 0 {
		for i := range evs {
			st.bus.forward(evs[i])
		}
	}
}

// Published returns how many events the stream has published.
func (st *Stream) Published() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.next - 1
}

// Subscribe attaches a subscriber that receives every event with
// sequence number greater than after (0 = from the beginning). Events
// still inside the retention ring are backfilled immediately; events
// already evicted — and backfill beyond the subscriber's own buffer —
// are counted as drops, so seen + dropped always equals the stream's
// published count for a subscriber attached with after=0. buffer 0
// selects the bus default. Subscribing to a closed (swept) stream
// returns an already-closed subscriber.
func (st *Stream) Subscribe(after uint64, buffer int) *Subscriber {
	s := newSubscriber(clampBuffer(buffer), st.bus)
	s.detach = st.detach
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		s.closed = true
		return s
	}
	published := st.next - 1
	if after > published {
		after = published
	}
	oldest := st.window(published)
	first := after + 1
	if first < oldest {
		// The resume point fell off the retention window: the gap is
		// reported as drops, not silently skipped.
		s.recordDrops(oldest - first)
		first = oldest
	}
	if n := published - first + 1; published >= first && n > uint64(len(s.buf)) {
		// More backlog than the subscriber can hold: keep the newest
		// bufferful, count the rest as drops (same policy as live
		// overflow — the reader learns the exact gap).
		s.recordDrops(n - uint64(len(s.buf)))
		first = published - uint64(len(s.buf)) + 1
	}
	if st.ring != nil {
		for seq := first; seq <= published; seq++ {
			s.buf[s.n] = st.unpack(st.ring[int((seq-1)%uint64(len(st.ring)))], seq)
			s.n++
		}
	} else {
		// Decode the packed window from its oldest event; the ones
		// before first only carry the time base forward.
		b, prev := st.packed, int64(0)
		for seq := oldest; seq <= published; seq++ {
			var r rec
			r, b = readRec(b, prev)
			prev = r.timeNs
			if seq >= first {
				s.buf[s.n] = st.unpack(r, seq)
				s.n++
			}
		}
	}
	if s.n > 0 {
		s.wake()
	}
	st.subs = append(st.subs, s)
	st.bus.subs.Add(1)
	return s
}

func (st *Stream) detach(s *Subscriber) {
	st.mu.Lock()
	for i, ss := range st.subs {
		if ss == s {
			st.subs = append(st.subs[:i], st.subs[i+1:]...)
			st.bus.subs.Add(-1)
			break
		}
	}
	st.mu.Unlock()
}

// Close ends the stream: every subscriber is closed (after draining
// what it already buffered) and future publishes are dropped. The bus
// calls it from Swept.
func (st *Stream) Close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	subs := st.subs
	st.subs = nil
	st.bus.subs.Add(-int64(len(subs)))
	st.mu.Unlock()
	for _, s := range subs {
		s.close()
	}
}

// Subscriber is one bounded consumer of a stream (or the firehose).
// The publisher side never blocks on it: a full buffer drops the
// incoming event and counts it. Readers drain with Poll and park on
// Ready.
type Subscriber struct {
	bus    *Bus
	detach func(*Subscriber)

	mu      sync.Mutex
	buf     []Event
	start   int
	n       int
	dropped uint64
	closed  bool

	ready chan struct{}
}

func newSubscriber(buffer int, bus *Bus) *Subscriber {
	return &Subscriber{bus: bus, buf: make([]Event, buffer), ready: make(chan struct{}, 1)}
}

// offer is the publisher side: O(1), never blocks. Callers hold the
// stream (or firehose) mutex; the subscriber mutex nests inside it.
func (s *Subscriber) offer(e Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.buf) {
		s.dropped++
		s.bus.dropped.Add(1)
	} else {
		s.buf[(s.start+s.n)%len(s.buf)] = e
		s.n++
	}
	s.mu.Unlock()
	s.wake()
}

// recordDrops accounts a resume/backfill gap. Caller holds no
// subscriber state yet (subscribe path), so only the counters move.
func (s *Subscriber) recordDrops(n uint64) {
	s.dropped += n
	s.bus.dropped.Add(n)
}

func (s *Subscriber) wake() {
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// Poll appends every buffered event to into and returns the result,
// the total number of events dropped at this subscriber so far, and
// whether the subscription has been closed (stream swept or Close
// called). It never blocks; an empty buffer returns into unchanged.
func (s *Subscriber) Poll(into []Event) (evs []Event, dropped uint64, closed bool) {
	s.mu.Lock()
	for i := 0; i < s.n; i++ {
		into = append(into, s.buf[(s.start+i)%len(s.buf)])
	}
	s.start, s.n = 0, 0
	dropped, closed = s.dropped, s.closed
	s.mu.Unlock()
	return into, dropped, closed
}

// Dropped returns the subscriber's drop counter.
func (s *Subscriber) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Ready signals (coalesced) when events or a close are waiting; park
// on it between Polls.
func (s *Subscriber) Ready() <-chan struct{} { return s.ready }

// Close detaches the subscriber from its stream. Buffered events stay
// readable through one final Poll.
func (s *Subscriber) Close() {
	if s.detach != nil {
		s.detach(s)
	}
	s.close()
}

func (s *Subscriber) close() {
	s.mu.Lock()
	was := s.closed
	s.closed = true
	s.mu.Unlock()
	if !was {
		s.wake()
	}
}
