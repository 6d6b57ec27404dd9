package service

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hetsched/internal/durable"
	"hetsched/internal/trace"
)

// hsn2Trace reads the trace of an HSN2 snapshot as it is stored — float
// seconds, not through the decoder — and returns its segments and the
// offset of the first. The fields before it are fixed-width: magic, ID,
// watermark, expired flag, request, eleven int64 and four float64
// counters, then the histogram and the workers' counters.
func hsn2Trace(tb testing.TB, raw []byte) ([]trace.Segment, int) {
	tb.Helper()
	u32 := func(i int) int { return int(binary.LittleEndian.Uint32(raw[i:])) }
	u64 := func(i int) uint64 { return binary.LittleEndian.Uint64(raw[i:]) }
	if string(raw[:4]) != "HSN2" {
		tb.Fatalf("fixture opens with %q", raw[:4])
	}
	i := 4 + 2 + int(binary.LittleEndian.Uint16(raw[4:])) + 8 + 1
	i += 4 + u32(i)
	i += 15 * 8
	i += 4 + 8*u32(i)
	i += 4 + 32*u32(i)
	segs := make([]trace.Segment, u32(i))
	i += 4
	at := i
	for k := range segs {
		segs[k] = trace.Segment{
			Proc:   int(u64(i)),
			Start:  math.Float64frombits(u64(i + 8)),
			End:    math.Float64frombits(u64(i + 16)),
			Tasks:  int(u64(i + 24)),
			Blocks: int(u64(i + 32)),
		}
		i += 40
	}
	return segs, at
}

// TestHSN2SnapshotRestoresExactly: the hsn2 fixture's restored trace
// equals, float for float, the segments the file stores; a checkpoint
// after the restore writes HSN3; and ExtractTransfer over a directory
// holding the fixture yields a stream ImportRun accepts, with the same
// trace.
func TestHSN2SnapshotRestoresExactly(t *testing.T) {
	raw := hsn2Snapshot(t)
	want, _ := hsn2Trace(t, raw)
	if len(want) == 0 {
		t.Fatal("the fixture has no trace segments")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, hsn2File), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	stream, err := durable.ExtractTransfer(dir, "r-hsn2")
	if err != nil {
		t.Fatalf("ExtractTransfer: %v", err)
	}
	if magic := string(stream[9:13]); magic != "HSN3" {
		t.Fatalf("the extracted stream embeds a %s snapshot, want HSN3", magic)
	}
	dst := New(Options{GCInterval: -1})
	defer dst.Close()
	imported, err := dst.ImportRun(stream)
	if err != nil {
		t.Fatalf("ImportRun: %v", err)
	}
	if got := imported.Host.Trace().Segments; !reflect.DeepEqual(got, want) {
		t.Fatalf("imported trace:\n got  %+v\nwant %+v", got, want)
	}

	w := newWorld(t, dir, newVclock(), true)
	if _, err := w.opts.Recover(w.reg, w.jr); err != nil {
		t.Fatalf("recover: %v", err)
	}
	run := mustGet(t, w, "r-hsn2")
	if got := run.Host.Trace().Segments; !reflect.DeepEqual(got, want) {
		t.Fatalf("restored trace:\n got  %+v\nwant %+v", got, want)
	}
	if err := w.reg.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("after the checkpoint the directory holds snapshots %v (%v), want one", snaps, err)
	}
	b, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if magic := string(b[:4]); magic != "HSN3" {
		t.Fatalf("the checkpoint wrote %s, want HSN3", magic)
	}
}

// TestHSN2InexactTraceFailsStop: an HSN2 snapshot holding a trace time
// that no nanosecond count renders to fails recovery and extraction,
// naming the file, rather than being skipped for an older state.
func TestHSN2InexactTraceFailsStop(t *testing.T) {
	raw := append([]byte(nil), hsn2Snapshot(t)...)
	_, at := hsn2Trace(t, raw)
	binary.LittleEndian.PutUint64(raw[at+8:], math.Float64bits(0.5e-9)) // first segment's start
	body := raw[:len(raw)-4]
	binary.LittleEndian.PutUint32(raw[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if _, err := durable.DecodeSnapshot(raw); !errors.Is(err, durable.ErrInexactTrace) {
		t.Fatalf("DecodeSnapshot = %v, want %v", err, durable.ErrInexactTrace)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, hsn2File), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w := newWorld(t, dir, newVclock(), true)
	if _, err := w.opts.Recover(w.reg, w.jr); !errors.Is(err, durable.ErrInexactTrace) || !strings.Contains(err.Error(), hsn2File) {
		t.Fatalf("Recover = %v, want %v naming %s", err, durable.ErrInexactTrace, hsn2File)
	}
	if _, err := durable.ExtractTransfer(dir, "r-hsn2"); !errors.Is(err, durable.ErrInexactTrace) {
		t.Fatalf("ExtractTransfer = %v, want %v", err, durable.ErrInexactTrace)
	}
}
