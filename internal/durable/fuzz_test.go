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
	"hetsched/internal/trace"
)

// The durable formats seal their bytes with CRCs, so nearly every
// mutation a fuzzer makes fails a checksum and never reaches the
// decoder behind it. Each durable fuzzer therefore checks every input
// twice: as given, which tests the CRCs themselves, and with its CRCs
// recomputed, which reaches the decoder behind them.

// appendFrame appends body to dst as a journal frame: length, CRC,
// body.
func appendFrame(dst, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(body, crcTable))
	return append(dst, body...)
}

// resealFrames recomputes in place the CRC of every whole journal frame
// in b, up to the first header whose length does not fit.
func resealFrames(b []byte) {
	for len(b) >= frameHeader {
		n := binary.LittleEndian.Uint32(b)
		if uint64(n) > uint64(len(b)-frameHeader) {
			return
		}
		binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(b[frameHeader:frameHeader+n], crcTable))
		b = b[frameHeader+n:]
	}
}

// resealSnapshot recomputes in place the CRC that ends snapshot b.
func resealSnapshot(b []byte) {
	if len(b) >= 4 {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], crcTable))
	}
}

// resealTransfer recomputes in place the CRCs of transfer stream b:
// its snapshot's, when its flag and length say it has one that fits,
// and its frames'.
func resealTransfer(b []byte) {
	i := len(transferMagic) + 1
	if len(b) < i {
		return
	}
	if b[i-1] == 1 && len(b)-i >= 4 {
		n := binary.LittleEndian.Uint32(b[i:])
		if i += 4; uint64(n) > uint64(len(b)-i) {
			return
		}
		resealSnapshot(b[i : i+int(n)])
		i += int(n)
	}
	resealFrames(b[i:])
}

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
	mangled := append([]byte(nil), seg...)
	mangled[len(mangled)/2] ^= 0x80
	for _, b := range [][]byte{seg, seg[:len(seg)-5], {}, {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, mangled} {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		checkJournal(t, b)
		b = bytes.Clone(b)
		resealFrames(b)
		checkJournal(t, b)
	})
}

// checkJournal holds FuzzJournalDecode's properties for one input.
func checkJournal(t *testing.T, b []byte) {
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
	damaged := AppendSnapshot(nil, goldenSnapshot())
	damaged[len(damaged)/3] ^= 0x01
	// A long run of short segments: its end deltas are 63, the largest
	// one-byte zigzag varint, so a byte mutation of one is likely to be
	// a boundary value that still decodes.
	busy := goldenSnapshot()
	busy.Trace = trace.Log{}
	for i := range 1000 {
		busy.Trace.SetEnd(busy.Trace.Append(i%2, int64(63*i), 1, 1), int64(63*i+10))
	}
	for _, b := range [][]byte{
		AppendSnapshot(nil, goldenSnapshot()),
		AppendSnapshot(nil, busy),
		AppendSnapshot(nil, &RunSnapshot{ID: "r0", Mutations: 1, Request: []byte(`{}`)}),
		{},
		[]byte("HSN2 not a snapshot"),
		[]byte("HSN1 a snapshot of the retired format"),
		damaged,
		hsn2Fixture(f),
	} {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		checkSnapshot(t, b)
		b = bytes.Clone(b)
		resealSnapshot(b)
		checkSnapshot(t, b)
	})
}

// checkSnapshot holds FuzzSnapshotRoundTrip's properties for one input.
func checkSnapshot(t *testing.T, b []byte) {
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
}
