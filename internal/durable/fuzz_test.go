package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hetsched/internal/core"
)

// FuzzJournalDecode feeds arbitrary bytes to the frame decoder: it must
// never panic, must consume only CRC-valid frames, and everything it
// does consume must re-frame to the identical bytes. The consumed
// frames, written as one generation, must read back (ReadRuns) into
// runs that each ship as a transfer stream DecodeTransfer accepts and
// decodes back to the same run.
func FuzzJournalDecode(f *testing.F) {
	// Seed with a real committed segment covering every record type.
	dir := f.TempDir()
	l, err := Open(dir)
	if err != nil {
		f.Fatalf("open: %v", err)
	}
	l.AppendCreate("r1", 1, 100, []byte(`{"id":"r1","kernel":"outer"}`))
	l.AppendPoll("r1", 2, 200, 0, nil)
	l.AppendPoll("r1", 3, 300, 5, []core.Task{1, 2, 3})
	l.AppendReclaim("r1", 4, 400)
	l.AppendExpire("r1", 5, 500)
	l.AppendSwept("r1", 6, 600)
	if err := l.Commit(); err != nil {
		f.Fatalf("commit: %v", err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segmentName(l.Gen())))
	if err != nil {
		f.Fatalf("read segment: %v", err)
	}
	l.Close()
	f.Add(seg)
	f.Add(seg[:len(seg)-5])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	mangled := append([]byte(nil), seg...)
	mangled[len(mangled)/2] ^= 0x80
	f.Add(mangled)

	f.Fuzz(func(t *testing.T, b []byte) {
		var muts []core.Mutation
		consumed, err := DecodeFrames(b, func(m core.Mutation) error {
			muts = append(muts, m)
			return nil
		})
		if consumed < 0 || consumed > len(b) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(b))
		}
		if err != nil {
			// A CRC-valid frame that does not decode: possible for
			// adversarial input that happens to checksum correctly; the
			// decoder reported it instead of panicking, which is the
			// contract.
			return
		}
		runDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(runDir, segmentName(1)), b[:consumed], 0o644); err != nil {
			t.Fatal(err)
		}
		runs, err := ReadRuns(runDir)
		if err != nil {
			t.Fatalf("ReadRuns over frames DecodeFrames accepted: %v", err)
		}
		for _, r := range runs {
			if r.Err != nil {
				continue
			}
			snap, tail, err := DecodeTransfer(AppendTransfer(nil, r.Snap, r.Tail))
			if err != nil || snap != nil || !reflect.DeepEqual(tail, r.Tail) {
				t.Fatalf("run %s does not survive a transfer stream (%v):\n read %+v\n back %+v", r.ID, err, r.Tail, tail)
			}
		}

		// Everything consumed must re-encode to the same bytes via a
		// fresh journal — decode is the inverse of append.
		dir := t.TempDir()
		nl, err := Open(dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer nl.Close()
		for _, m := range muts {
			switch m.Op {
			case core.MutCreate:
				nl.AppendCreate(m.Run, m.Seq, m.TimeNs, m.Payload)
			case core.MutPoll:
				nl.AppendPoll(m.Run, m.Seq, m.TimeNs, m.Worker, m.Tasks)
			case core.MutReclaim:
				nl.AppendReclaim(m.Run, m.Seq, m.TimeNs)
			case core.MutExpire:
				nl.AppendExpire(m.Run, m.Seq, m.TimeNs)
			case core.MutSwept:
				nl.AppendSwept(m.Run, m.Seq, m.TimeNs)
			default:
				t.Fatalf("decoded unknown op %v", m.Op)
			}
		}
		if err := nl.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		re, err := os.ReadFile(filepath.Join(dir, segmentName(nl.Gen())))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(re, b[:consumed]) {
			// Lossless only when every decoded field survives re-append:
			// poll records with Worker < 0 or non-poll records carrying
			// tasks cannot come from this writer, so consumed bytes that
			// differ here mean the decoder accepted something the writer
			// cannot produce — allowed, as long as the mutation content
			// matches when re-decoded.
			var reMuts []core.Mutation
			if _, err := DecodeFrames(re, func(m core.Mutation) error {
				reMuts = append(reMuts, m)
				return nil
			}); err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if len(reMuts) != len(muts) {
				t.Fatalf("re-encode kept %d of %d mutations", len(reMuts), len(muts))
			}
		}
	})
}

// hsn2Fixture is a snapshot the last HSN2 writer wrote (the service's
// recovery tests restore it).
func hsn2Fixture(tb testing.TB) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("..", "service", "testdata", "hsn2", "snap-r-hsn2-000000000000000a.snap"))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// roundTrips checks what the decoder accepted, s decoded from b: an
// HSN3 b re-encodes bit-identically; an HSN2 b re-encodes as HSN3,
// which decodes to s again.
func roundTrips(t *testing.T, s *RunSnapshot, b []byte) {
	t.Helper()
	re := AppendSnapshot(nil, s)
	if string(b[:4]) == string(hsn2Magic[:]) {
		again, err := DecodeSnapshot(re)
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("accepted HSN2 snapshot does not survive HSN3:\n in  %+v\n out %+v (%v)", s, again, err)
		}
		return
	}
	if !bytes.Equal(re, b) {
		t.Fatalf("accepted snapshot is not canonical:\n in  %x\n out %x", b, re)
	}
}

// FuzzSnapshotRoundTrip feeds arbitrary bytes to the snapshot decoder:
// it must never panic, anything it accepts as HSN3 must re-encode
// bit-identically, and an HSN2 snapshot it accepts must decode from
// its HSN3 re-encoding to what it decoded to. With its trace packed,
// an accepted snapshot must re-encode to the same bytes and render the
// same trace.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(AppendSnapshot(nil, goldenSnapshot()))
	f.Add(AppendSnapshot(nil, &RunSnapshot{ID: "r0", Mutations: 1, Request: []byte(`{}`)}))
	f.Add([]byte{})
	f.Add([]byte("HSN2 not a snapshot"))
	f.Add([]byte("HSN1 a snapshot of the retired format"))
	damaged := AppendSnapshot(nil, goldenSnapshot())
	damaged[len(damaged)/3] ^= 0x01
	f.Add(damaged)
	f.Add(hsn2Fixture(f))

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSnapshot(b)
		if err != nil {
			return
		}
		roundTrips(t, s, b)
		re, want := AppendSnapshot(nil, s), s.Trace.Trace(len(s.Workers))
		s.Trace.Pack()
		if got := AppendSnapshot(nil, s); !bytes.Equal(got, re) {
			t.Fatalf("packing the trace changed the snapshot:\n was %x\n now %x", re, got)
		}
		if got := s.Trace.Trace(len(s.Workers)); !reflect.DeepEqual(got, want) {
			t.Fatalf("packing the trace changed it:\n was %+v\n now %+v", want.Segments, got.Segments)
		}
	})
}
