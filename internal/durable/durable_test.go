package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/outer"
	"hetsched/internal/rng"
	"hetsched/internal/trace"
)

// collect replays l into a slice.
func collect(t *testing.T, l *Log) []core.Mutation {
	t.Helper()
	var out []core.Mutation
	if err := l.Replay(func(m core.Mutation) error {
		out = append(out, m)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

// reopen closes l and opens the directory again, as recovery would.
func reopen(t *testing.T, l *Log) *Log {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	nl, err := Open(l.Dir())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { nl.Close() })
	return nl
}

func TestJournalRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.AppendCreate("r1", 1, 100, []byte(`{"id":"r1"}`))
	l.AppendPoll("r1", 2, 200, 0, nil)
	l.AppendPoll("r1", 3, 300, 1, []core.Task{7, 9})
	l.AppendReclaim("r1", 4, 400)
	l.AppendExpire("r1", 5, 500)
	l.AppendSwept("r1", 6, 600)
	if err := l.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	got := collect(t, reopen(t, l))
	want := []core.Mutation{
		{Op: core.MutCreate, Run: "r1", Seq: 1, TimeNs: 100, Worker: -1, Payload: []byte(`{"id":"r1"}`)},
		{Op: core.MutPoll, Run: "r1", Seq: 2, TimeNs: 200, Worker: 0},
		{Op: core.MutPoll, Run: "r1", Seq: 3, TimeNs: 300, Worker: 1, Tasks: []core.Task{7, 9}},
		{Op: core.MutReclaim, Run: "r1", Seq: 4, TimeNs: 400, Worker: -1},
		{Op: core.MutExpire, Run: "r1", Seq: 5, TimeNs: 500, Worker: -1},
		{Op: core.MutSwept, Run: "r1", Seq: 6, TimeNs: 600, Worker: -1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed mutations diverge:\n got %+v\nwant %+v", got, want)
	}
}

func TestJournalUncommittedIsInvisible(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.AppendPoll("r1", 1, 100, 0, nil)
	if err := l.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	l.AppendPoll("r1", 2, 200, 0, nil) // buffered, never committed
	// Simulate the kill: read the segment as it is on disk, bypassing
	// Close's flush.
	data, err := os.ReadFile(filepath.Join(l.Dir(), segmentName(l.Gen())))
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	n := 0
	if _, err := DecodeFrames(data, func(core.Mutation) error { n++; return nil }); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != 1 {
		t.Fatalf("on-disk frames = %d, want 1 (uncommitted append must not be visible)", n)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mangle  func([]byte) []byte
		survive int
	}{
		{"truncated mid frame", func(b []byte) []byte { return b[:len(b)-3] }, 2},
		{"flipped payload byte", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, 2},
		{"flipped crc byte", func(b []byte) []byte { b[len(b)-20] ^= 0xff; return b }, 2},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe) }, 3},
		{"insane length", func(b []byte) []byte {
			return append(b, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1, 2, 3)
		}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := Open(t.TempDir())
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			l.AppendCreate("r1", 1, 100, []byte(`{}`))
			l.AppendPoll("r1", 2, 200, 0, nil)
			l.AppendPoll("r1", 3, 300, 1, []core.Task{4})
			if err := l.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			seg := filepath.Join(l.Dir(), segmentName(l.Gen()))
			if err := l.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if err := os.WriteFile(seg, tc.mangle(data), 0o644); err != nil {
				t.Fatalf("write: %v", err)
			}
			nl, err := Open(l.Dir())
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer nl.Close()
			got := collect(t, nl)
			if len(got) != tc.survive {
				t.Fatalf("replayed %d mutations, want %d", len(got), tc.survive)
			}
			for i, m := range got {
				if m.Seq != uint64(i+1) {
					t.Fatalf("mutation %d has seq %d", i, m.Seq)
				}
			}
		})
	}
}

// TestJournalTornInteriorGenerationReplaysLaterGenerations pins the
// crash-then-crash-again sequence: gen 1 is torn by the first kill, the
// restarted process acknowledges new mutations into gen 2, and a later
// restart must replay gen 2 — a torn tail ends only its own generation,
// never the whole journal.
func TestJournalTornInteriorGenerationReplaysLaterGenerations(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.AppendCreate("r1", 1, 100, []byte(`{}`))
	l.AppendPoll("r1", 2, 200, 0, nil)
	l.AppendPoll("r1", 3, 300, 1, nil)
	if err := l.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	seg := filepath.Join(dir, segmentName(l.Gen()))
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The kill interrupts the write of seq 3: tear its frame.
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatalf("tear: %v", err)
	}
	// The restarted process replays seqs 1–2 and acknowledges 3–4 into
	// the next generation.
	l, err = Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	l.AppendPoll("r1", 3, 350, 1, nil)
	l.AppendPoll("r1", 4, 400, 0, nil)
	if err := l.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	got := collect(t, reopen(t, l))
	want := []uint64{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("replayed %d mutations (%+v), want seqs %v", len(got), got, want)
	}
	for i, m := range got {
		if m.Seq != want[i] {
			t.Fatalf("mutation %d has seq %d, want %d", i, m.Seq, want[i])
		}
	}
	if got[2].TimeNs != 350 {
		t.Fatalf("seq 3 replayed from the torn generation (TimeNs %d), want the re-acknowledged record (350)", got[2].TimeNs)
	}
}

// TestJournalDamagedGenerationSealedOnCommit pins the partial-write
// recovery path: once a write error leaves torn bytes in a generation,
// the next commit must not rewrite the buffer after them — it seals the
// damaged generation and retries into a fresh one, and replay sees
// every committed frame exactly once.
func TestJournalDamagedGenerationSealedOnCommit(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.AppendCreate("r1", 1, 100, []byte(`{}`))
	if err := l.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	gen := l.Gen()
	// Simulate a write(2) that failed after landing some bytes.
	l.mu.Lock()
	l.f.Write([]byte{0x07, 0x00}) // torn frame prefix on disk
	l.damaged = true
	l.mu.Unlock()
	l.AppendPoll("r1", 2, 200, 0, nil)
	if err := l.Commit(); err != nil {
		t.Fatalf("commit after damage: %v", err)
	}
	if got := l.Gen(); got != gen+1 {
		t.Fatalf("generation after damaged commit = %d, want %d (sealed and rotated)", got, gen+1)
	}
	got := collect(t, reopen(t, l))
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("replayed %+v, want seqs [1 2]", got)
	}
}

func TestJournalRotateAndPrune(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	l.AppendCreate("r1", 1, 100, []byte(`{}`))
	l.AppendPoll("r1", 2, 200, 0, nil)
	sealed, err := l.Rotate()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	// Checkpoint: snapshot r1 at watermark 2, then prune the sealed
	// generation and a stale older snapshot.
	for _, seq := range []uint64{1, 2} {
		if err := l.WriteSnapshot(&RunSnapshot{ID: "r1", Mutations: seq, Request: []byte(`{}`)}); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
	}
	if err := l.Prune(sealed, map[string]uint64{"r1": 2}); err != nil {
		t.Fatalf("prune: %v", err)
	}
	gens, snaps, err := scanDir(l.Dir())
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(gens) != 1 || gens[0] != sealed+1 {
		t.Fatalf("generations after prune = %v, want [%d]", gens, sealed+1)
	}
	if len(snaps) != 1 || snaps[0].seq != 2 {
		t.Fatalf("snapshots after prune = %+v, want the seq-2 keeper only", snaps)
	}
	// Post-rotation appends land in the live generation and survive.
	l.AppendPoll("r1", 3, 300, 1, nil)
	if err := l.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	got := collect(t, reopen(t, l))
	if len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("replay after prune = %+v, want only seq 3", got)
	}
	ss, err := l.LoadSnapshots()
	if err != nil {
		t.Fatalf("load snapshots: %v", err)
	}
	if len(ss) != 1 || ss["r1"] == nil || ss["r1"].Mutations != 2 {
		t.Fatalf("loaded snapshots = %+v, want r1@2", ss)
	}
}

// goldenDriver is the state of a small served driver a few grants in,
// so the snapshot corpus carries the bytes a real host writes.
func goldenDriver() []byte {
	d := core.NewSchedulerDriver(outer.NewTwoPhasesAuto(4, 2, rng.New(1).Split()))
	for w := 0; w < 4; w++ {
		d.Next(w % 2)
	}
	return d.AppendState(nil)
}

// goldenTrace has a closed record, an open one, and a start before
// the run's.
func goldenTrace() trace.Log {
	var l trace.Log
	l.SetEnd(l.Append(0, 0, 2, 6), 1_500_000_000)
	l.Append(1, 500_000_000, 1, 2)
	l.SetEnd(l.Append(0, -2_000_000_000, 1, 2), -1)
	return l
}

// goldenSnapshot exercises every field of the snapshot codec.
func goldenSnapshot() *RunSnapshot {
	return &RunSnapshot{
		ID:        "r-golden.1",
		Mutations: 42,
		Expired:   true,
		Request:   []byte(`{"id":"r-golden.1","kernel":"outer"}`),
		CreatedNs: 1000, StartNs: 1000, LastNs: 5000, LastPollNs: 6000,
		Assigned: 9, Completed: 7, Reclaimed: 1, Blocks: 20, Requests: 5, Polls: 8,
		BatchN: 5, BatchMean: 1.8, BatchM2: 0.8, BatchMin: 1, BatchMax: 3,
		BatchHist: []int64{3, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		Workers: []WorkerCounters{
			{Requests: 3, Tasks: 4, Blocks: 12, Reclaimed: 1},
			{Requests: 2, Tasks: 3, Blocks: 8},
		},
		Trace:  goldenTrace(),
		Open:   []int32{-1, 1},
		Grants: []Grant{{Task: 3, ExpiryNs: 9000, Worker: 1}, {Task: 5, ExpiryNs: 9500, Worker: 0}},
		Stains: []Stain{{Task: 2, Worker: 0}},
		Driver: goldenDriver(),
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for name, s := range map[string]*RunSnapshot{
		"golden": goldenSnapshot(),
		"empty":  {ID: "r0", Mutations: 1, Request: []byte(`{}`)},
	} {
		t.Run(name, func(t *testing.T) {
			enc := AppendSnapshot(nil, s)
			got, err := DecodeSnapshot(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			re := AppendSnapshot(nil, got)
			if !bytes.Equal(enc, re) {
				t.Fatalf("re-encode is not bit-identical:\n %x\n %x", enc, re)
			}
			if got.ID != s.ID || got.Mutations != s.Mutations || got.Expired != s.Expired {
				t.Fatalf("header fields diverge: %+v vs %+v", got, s)
			}
			if !reflect.DeepEqual(got.Grants, s.Grants) || !reflect.DeepEqual(got.Trace, s.Trace) {
				t.Fatalf("slices diverge: %+v vs %+v", got, s)
			}
		})
	}
}

func TestSnapshotDamageRejected(t *testing.T) {
	enc := AppendSnapshot(nil, goldenSnapshot())
	if _, err := DecodeSnapshot(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated snapshot decoded")
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("snapshot with trailing byte decoded")
	}
	for i := 0; i < len(enc); i += 7 {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Fatalf("snapshot with byte %d flipped decoded", i)
		}
	}
}

// TestSnapshotTraceCanonical: the decoder accepts a trace only in the
// one form the encoder writes it. The snapshot has two workers and one
// open record at 0; each case rewrites its trace section — count(u32)
// recLen(u32) records ends — and re-seals the CRC.
func TestSnapshotTraceCanonical(t *testing.T) {
	var one trace.Log
	one.Append(1, 0, 1, 1)
	s := &RunSnapshot{ID: "r", Request: []byte(`{}`), Workers: make([]WorkerCounters, 2), Trace: one}
	enc := AppendSnapshot(nil, s)
	at := 4 + 2 + len(s.ID) + 8 + 1 + 4 + len(s.Request) + 15*8 + 4 + 4 + 32*len(s.Workers)
	section := []byte{1, 0, 0, 0, 4, 0, 0, 0, 0, 1, 1, 1, 0}
	if !bytes.Equal(enc[at:at+len(section)], section) {
		t.Fatalf("trace section at %d is %x, want %x", at, enc[at:at+len(section)], section)
	}
	if _, err := DecodeSnapshot(enc); err != nil {
		t.Fatalf("the untouched snapshot: %v", err)
	}
	for _, tc := range []struct {
		name    string
		section []byte
	}{
		{"non-minimal end", []byte{1, 0, 0, 0, 4, 0, 0, 0, 0, 1, 1, 1, 0x80, 0}},
		{"non-minimal start", []byte{1, 0, 0, 0, 5, 0, 0, 0, 0x80, 0, 1, 1, 1, 0}},
		{"one record short", []byte{2, 0, 0, 0, 4, 0, 0, 0, 0, 1, 1, 1, 0, 0}},
		{"bytes past the records", []byte{1, 0, 0, 0, 5, 0, 0, 0, 0, 1, 1, 1, 0, 0}},
		{"proc past the workers", []byte{1, 0, 0, 0, 4, 0, 0, 0, 0, 2, 1, 1, 0}},
		{"count past MaxInt32", []byte{1, 0, 0, 0, 8, 0, 0, 0, 0, 1, 0x80, 0x80, 0x80, 0x80, 8, 1, 0}},
	} {
		bad := append(append(append([]byte(nil), enc[:at]...), tc.section...), enc[at+len(section):len(enc)-4]...)
		bad = binary.LittleEndian.AppendUint32(bad, crc32.Checksum(bad, crcTable))
		if got, err := DecodeSnapshot(bad); err == nil {
			t.Errorf("%s: decoded, trace %+v", tc.name, got.Trace.Trace(2).Segments)
		}
	}
}

func TestLoadSnapshotsSkipsDamaged(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	good := goldenSnapshot()
	good.Mutations = 5
	if err := l.WriteSnapshot(good); err != nil {
		t.Fatalf("write: %v", err)
	}
	// A later snapshot whose write the crash interrupted: valid name,
	// torn content.
	torn := AppendSnapshot(nil, goldenSnapshot())
	if err := os.WriteFile(filepath.Join(l.Dir(), snapshotName(good.ID, 9)), torn[:len(torn)/2], 0o644); err != nil {
		t.Fatalf("write torn: %v", err)
	}
	ss, err := l.LoadSnapshots()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	s := ss[good.ID]
	if s == nil || s.Mutations != 5 {
		t.Fatalf("loaded %+v, want the intact seq-5 snapshot (older + longer tail wins)", s)
	}
}
