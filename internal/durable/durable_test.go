package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/flat"
	"hetsched/internal/outer"
	"hetsched/internal/rng"
	"hetsched/internal/trace"
)

// collect reopens l, as recovery would, and returns the tail of the
// one run its directory holds.
func collect(t *testing.T, l *Log) []core.Mutation {
	t.Helper()
	runs, err := ReadRuns(reopen(t, l).Dir())
	if err != nil || len(runs) != 1 || runs[0].Err != nil {
		t.Fatalf("ReadRuns = %+v, %v; want one run", runs, err)
	}
	return runs[0].Tail
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
	defer l.Close()
	l.AppendCreate("r1", 1, 100, []byte(`{"id":"r1"}`))
	l.AppendPoll("r1", 2, 200, 0, nil)
	l.AppendPoll("r1", 3, 300, 1, []core.Task{7, 9})
	l.AppendReclaim("r1", 4, 400)
	l.AppendExpire("r1", 5, 500)
	l.AppendSwept("r1", 6, 600)
	if err := l.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(l.Dir(), segmentName(l.Gen())))
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	var got []core.Mutation
	if _, err := DecodeFrames(data, func(m core.Mutation) error {
		got = append(got, m)
		return nil
	}); err != nil {
		t.Fatalf("decode: %v", err)
	}
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
			runs, err := ReadRuns(l.Dir())
			if err != nil || len(runs) != 1 {
				t.Fatalf("ReadRuns = %+v, %v; want one run", runs, err)
			}
			got := runs[0].Tail
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
	got := collect(t, l)
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
	got := collect(t, l)
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
	runs, err := ReadRuns(reopen(t, l).Dir())
	if err != nil || len(runs) != 1 {
		t.Fatalf("ReadRuns = %+v, %v; want r1 alone", runs, err)
	}
	if s := runs[0].Snap; s == nil || s.Mutations != 2 {
		t.Fatalf("read snapshot %+v, want r1@2", s)
	}
	if got := runs[0].Tail; len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("tail after prune = %+v, want only seq 3", got)
	}
}

// goldenDriver is the state of a small served driver a few grants in,
// so the snapshot corpus carries the bytes a real host writes.
func goldenDriver() []byte {
	d := core.NewSchedulerDriver(flat.NewTwoPhasesAuto(outer.Kernel, 4, 2, rng.New(1).Split()))
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

// hsn2Inexact is an HSN2 snapshot of run r1 whose one trace segment
// starts at a time, in float seconds, that no nanosecond count renders
// to. It is built from the HSN3 encoding of the same run with an empty
// trace: the formats differ only in that section.
func hsn2Inexact() []byte {
	s := &RunSnapshot{ID: "r1", Mutations: 4, Request: []byte(`{}`), Workers: make([]WorkerCounters, 1)}
	enc := AppendSnapshot(nil, s)
	at := 4 + 2 + len(s.ID) + 8 + 1 + 4 + len(s.Request) + 15*8 + 4 + 4 + 32*len(s.Workers)
	b := append([]byte("HSN2"), enc[4:at]...)
	b = binary.LittleEndian.AppendUint32(b, 1)
	for _, w := range []uint64{0, math.Float64bits(0.5e-9), math.Float64bits(1), 1, 1} {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	b = append(b, enc[at+8:len(enc)-4]...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// describe renders what ReadRuns returned, one line a run: its id, the
// snapshot's watermark, the tail's sequence numbers, or its error.
func describe(runs []StoredRun) []string {
	out := make([]string, 0, len(runs))
	for _, r := range runs {
		line := r.ID
		if r.Err != nil {
			line += " error: " + r.Err.Error()
		}
		if r.Snap != nil {
			line += fmt.Sprintf(" snap %d", r.Snap.Mutations)
		}
		for i, m := range r.Tail {
			if i == 0 {
				line += " tail"
			}
			line += fmt.Sprintf(" %d", m.Seq)
		}
		out = append(out, line)
	}
	return out
}

// TestReadRuns has one row per rule of the reader. Each row journals
// into a fresh directory (committed after setup) and names the runs
// the reader must return, in order; a run's error must contain the
// text after "error: ", and errIs must be in its chain.
func TestReadRuns(t *testing.T) {
	snap := func(t *testing.T, l *Log, id string, seq uint64) {
		if err := l.WriteSnapshot(&RunSnapshot{ID: id, Mutations: seq, Request: []byte(`{}`)}); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
	}
	polls := func(l *Log, id string, seqs ...uint64) {
		for _, seq := range seqs {
			l.AppendPoll(id, seq, int64(seq)*100, 0, nil)
		}
	}
	hsn1, err := os.ReadFile(filepath.Join("..", "service", "testdata", "hsn1", "snap-r-hsn1-0000000000000005.snap"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		setup   func(t *testing.T, l *Log)
		want    []string
		errIs   error
		callErr string
	}{
		{
			name: "a run without a snapshot opens with its create",
			setup: func(t *testing.T, l *Log) {
				l.AppendCreate("r1", 1, 100, []byte(`{}`))
				polls(l, "r1", 2, 3)
			},
			want: []string{"r1 tail 1 2 3"},
		},
		{
			name: "live runs in id order, a snapshot alone among them",
			setup: func(t *testing.T, l *Log) {
				l.AppendCreate("gone", 1, 100, []byte(`{}`))
				l.AppendCreate("alive", 1, 110, []byte(`{}`))
				l.AppendSwept("gone", 2, 120)
				snap(t, l, "frozen", 7)
			},
			want: []string{"alive tail 1", "frozen snap 7"},
		},
		{
			name: "the tail starts above the snapshot's watermark",
			setup: func(t *testing.T, l *Log) {
				l.AppendCreate("r1", 1, 100, []byte(`{}`))
				polls(l, "r1", 2, 3, 4)
				snap(t, l, "r1", 2)
				snap(t, l, "r1", 1)
			},
			want: []string{"r1 snap 2 tail 3 4"},
		},
		{
			name: "a damaged snapshot is skipped for an older one",
			setup: func(t *testing.T, l *Log) {
				snap(t, l, "r1", 5)
				torn := AppendSnapshot(nil, &RunSnapshot{ID: "r1", Mutations: 9, Request: []byte(`{}`)})
				if err := os.WriteFile(filepath.Join(l.Dir(), snapshotName("r1", 9)), torn[:len(torn)/2], 0o644); err != nil {
					t.Fatal(err)
				}
				polls(l, "r1", 6)
			},
			want: []string{"r1 snap 5 tail 6"},
		},
		{
			name: "an HSN1 snapshot fails its run by file name",
			setup: func(t *testing.T, l *Log) {
				if err := os.WriteFile(filepath.Join(l.Dir(), "snap-r-hsn1-0000000000000005.snap"), hsn1, 0o644); err != nil {
					t.Fatal(err)
				}
				snap(t, l, "r-hsn1", 9)
				l.AppendCreate("r2", 1, 100, []byte(`{}`))
			},
			want:  []string{"r-hsn1 error: snap-r-hsn1-0000000000000005.snap", "r2 tail 1"},
			errIs: ErrOpLogSnapshot,
		},
		{
			name: "an inexact HSN2 snapshot fails its run by file name",
			setup: func(t *testing.T, l *Log) {
				if err := os.WriteFile(filepath.Join(l.Dir(), snapshotName("r1", 4)), hsn2Inexact(), 0o644); err != nil {
					t.Fatal(err)
				}
				l.AppendCreate("r1", 1, 100, []byte(`{}`))
			},
			want:  []string{"r1 error: " + snapshotName("r1", 4)},
			errIs: ErrInexactTrace,
		},
		{
			name: "a torn tail ends only its own generation",
			setup: func(t *testing.T, l *Log) {
				l.AppendCreate("r1", 1, 100, []byte(`{}`))
				polls(l, "r1", 2, 3)
				sealed, err := l.Rotate()
				if err != nil {
					t.Fatal(err)
				}
				seg := filepath.Join(l.Dir(), segmentName(sealed))
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
					t.Fatal(err)
				}
				polls(l, "r1", 3, 4)
			},
			want: []string{"r1 tail 1 2 3 4"},
		},
		{
			name: "records at or below the watermark are skipped, MutSwept included",
			setup: func(t *testing.T, l *Log) {
				// Migrated away at seq 3, back at seq 4 (the import's own).
				l.AppendCreate("r1", 1, 100, []byte(`{}`))
				polls(l, "r1", 2)
				l.AppendSwept("r1", 3, 300)
				snap(t, l, "r1", 4)
				polls(l, "r1", 5, 2)
			},
			want: []string{"r1 snap 4 tail 5"},
		},
		{
			name: "a record written twice is read once",
			setup: func(t *testing.T, l *Log) {
				l.AppendCreate("r1", 1, 100, []byte(`{}`))
				polls(l, "r1", 2, 2, 3)
			},
			want: []string{"r1 tail 1 2 3"},
		},
		{
			name: "a gap is that run's error",
			setup: func(t *testing.T, l *Log) {
				l.AppendCreate("r1", 1, 100, []byte(`{}`))
				l.AppendCreate("r2", 1, 100, []byte(`{}`))
				polls(l, "r1", 2, 4, 5)
				polls(l, "r2", 2)
			},
			want: []string{"r1 error: journal gap for run r1: have 2, next record is 4", "r2 tail 1 2"},
		},
		{
			name: "MutSwept drops the run and a seq-1 create starts it again",
			setup: func(t *testing.T, l *Log) {
				snap(t, l, "r1", 2)
				polls(l, "r1", 3)
				l.AppendSwept("r1", 4, 400)
				polls(l, "r1", 5)
				l.AppendCreate("r1", 1, 500, []byte(`{}`))
				polls(l, "r1", 2)
				l.AppendCreate("r2", 1, 100, []byte(`{}`))
				l.AppendSwept("r2", 2, 200)
			},
			want: []string{"r1 tail 1 2"},
		},
		{
			name: "records of an unknown run are ignored",
			setup: func(t *testing.T, l *Log) {
				polls(l, "ghost", 5, 6)
				l.AppendSwept("ghost", 7, 700)
			},
			want: []string{},
		},
		{
			name: "a CRC-valid frame that does not decode fails the call",
			setup: func(t *testing.T, l *Log) {
				body := []byte{0xff}
				frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
				frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(body, crcTable))
				if err := os.WriteFile(filepath.Join(l.Dir(), segmentName(l.Gen()+1)), append(frame, body...), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			callErr: "frame at offset 0",
		},
		{
			name: "a directory it cannot read fails the call",
			setup: func(t *testing.T, l *Log) {
				if err := os.RemoveAll(l.Dir()); err != nil {
					t.Fatal(err)
				}
			},
			callErr: "no such file or directory",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := Open(t.TempDir())
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer l.Close()
			tc.setup(t, l)
			if err := l.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			runs, err := ReadRuns(l.Dir())
			if tc.callErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.callErr) {
					t.Fatalf("ReadRuns error %v, want one containing %q", err, tc.callErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ReadRuns: %v", err)
			}
			got := describe(runs)
			if len(got) != len(tc.want) {
				t.Fatalf("ReadRuns returned %q, want %q", got, tc.want)
			}
			for i, want := range tc.want {
				id, msg, isErr := strings.Cut(want, " error: ")
				if !isErr && got[i] != want || isErr && (!strings.HasPrefix(got[i], id+" error: ") || !strings.Contains(got[i], msg)) {
					t.Fatalf("run %d is %q, want %q", i, got[i], want)
				}
				if isErr && tc.errIs != nil && !errors.Is(runs[i].Err, tc.errIs) {
					t.Fatalf("run %s error %v, want %v", id, runs[i].Err, tc.errIs)
				}
			}
		})
	}
}
