package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"hetsched/internal/trace"
)

// WorkerCounters is one worker's per-run counters as persisted by a
// snapshot; the worker index is the slice position.
type WorkerCounters struct {
	Requests, Tasks, Blocks, Reclaimed int64
}

// Grant is one outstanding lease: task granted to Worker, expiring at
// ExpiryNs (0 when leases are disabled).
type Grant struct {
	Task     int64
	ExpiryNs int64
	Worker   int32
}

// Stain is one reclaimed-ownership mark: Worker lost Task to a lease
// reclaim and its late completion must draw a deterministic 409.
type Stain struct {
	Task   int64
	Worker int32
}

// RunSnapshot is the full persisted state of one run: everything the
// service needs to rebuild its Host — and the driver inside it — to
// the exact instant the snapshot was cut. Mutations is the per-run
// sequence watermark: recovery restores the snapshot and then replays
// only journal records with a higher sequence number.
//
// Driver is the driver's own state, as its core.Snapshotter wrote it:
// restore builds a fresh driver from Request and hands it these bytes,
// so a snapshot's size and its restore time follow the run's state,
// not the length of its history.
type RunSnapshot struct {
	ID        string
	Mutations uint64
	Expired   bool
	Request   []byte // canonical creation record (same payload as MutCreate)

	CreatedNs  int64
	StartNs    int64
	LastNs     int64
	LastPollNs int64

	Assigned, Completed, Reclaimed int64
	Blocks, Requests, Polls        int64

	BatchN                                 int64
	BatchMean, BatchM2, BatchMin, BatchMax float64
	BatchHist                              []int64

	Workers []WorkerCounters
	Trace   trace.Log // every assignment, as the host keeps it
	Open    []int32   // per-worker open trace record index, -1 when closed

	Grants []Grant
	Stains []Stain

	Driver []byte
}

// Snapshot file format (HSN3): magic, fields in struct order, and a
// trailing CRC-32C over everything before it. Fields are fixed-width
// little-endian (u16 length-prefixed ID, u32 length-prefixed slices)
// except the trace:
//
//	trace := count(u32) recLen(u32) records end*
//
// records are the trace.Log's bytes verbatim (count records), and each
// end is the zigzag varint of the record's end minus the previous
// record's end (the first's minus 0), all in nanoseconds. The encoding
// is canonical — every field has exactly one representation, varints
// included — so encode(decode(b)) == b for any accepted HSN3 b
// (FuzzSnapshotRoundTrip pins this).
//
// HSN2, the previous format, differs only in the trace: count(u32) and
// five 8-byte words per segment (proc, start and end as float64
// seconds, tasks, blocks). It still decodes — every time through the
// exact inverse of Duration.Seconds — and re-encodes as HSN3; a time
// that no nanosecond count renders to fails with ErrInexactTrace.
var (
	snapMagic = [4]byte{'H', 'S', 'N', '3'}
	hsn2Magic = [4]byte{'H', 'S', 'N', '2'}
)

// retiredMagic opens the snapshots of the retired format, which carried
// the driver as a log of its calls to replay; they are refused.
var retiredMagic = [4]byte{'H', 'S', 'N', '1'}

// ErrOpLogSnapshot rejects a snapshot in the retired op-log format.
// Recovery and imports fail on it rather than skip it: skipping would
// fall back to an older snapshot or a pruned journal and lose
// acknowledged state without a word.
var ErrOpLogSnapshot = errors.New("snapshot was written in the retired op-log format (HSN1), which this version cannot restore")

// ErrInexactTrace rejects an HSN2 snapshot whose trace holds a time, in
// float seconds, that no nanosecond count renders to. Such a file was
// not written by a host; like ErrOpLogSnapshot it fails recovery and
// imports rather than being skipped.
var ErrInexactTrace = errors.New("HSN2 snapshot holds a trace time no nanosecond count renders to")

// maxSnapshotSlice bounds every slice length a decoder will accept.
const maxSnapshotSlice = 1 << 26

// AppendSnapshot appends the encoding of s to dst. The trailing CRC
// covers the snapshot's own bytes only, so the encoding is position
// independent — it may be embedded mid-stream (transfer streams do).
func AppendSnapshot(dst []byte, s *RunSnapshot) []byte {
	if len(s.ID) > 1<<16-1 {
		panic("durable: run id exceeds snapshot format")
	}
	start := len(dst)
	dst = append(dst, snapMagic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s.ID)))
	dst = append(dst, s.ID...)
	dst = binary.LittleEndian.AppendUint64(dst, s.Mutations)
	if s.Expired {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendBytes(dst, s.Request)
	for _, v := range [...]int64{
		s.CreatedNs, s.StartNs, s.LastNs, s.LastPollNs,
		s.Assigned, s.Completed, s.Reclaimed, s.Blocks, s.Requests, s.Polls,
		s.BatchN,
	} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	for _, v := range [...]float64{s.BatchMean, s.BatchM2, s.BatchMin, s.BatchMax} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.BatchHist)))
	for _, v := range s.BatchHist {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Workers)))
	for _, w := range s.Workers {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(w.Requests))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(w.Tasks))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(w.Blocks))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(w.Reclaimed))
	}
	ends := s.Trace.Ends()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ends)))
	dst = appendBytes(dst, s.Trace.Records())
	prev := int64(0)
	for _, e := range ends {
		dst = binary.AppendVarint(dst, e-prev)
		prev = e
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Open)))
	for _, v := range s.Open {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Grants)))
	for _, g := range s.Grants {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(g.Task))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(g.ExpiryNs))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(g.Worker))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Stains)))
	for _, st := range s.Stains {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(st.Task))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(st.Worker))
	}
	dst = appendBytes(dst, s.Driver)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// snapReader pulls fixed-width fields off a snapshot body with
// saturating error state, keeping every accessor total.
type snapReader struct {
	data []byte
	i    int
	bad  bool
}

func (r *snapReader) u16() uint16 {
	if r.bad || len(r.data)-r.i < 2 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint16(r.data[r.i:])
	r.i += 2
	return v
}

func (r *snapReader) u32() uint32 {
	if r.bad || len(r.data)-r.i < 4 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.i:])
	r.i += 4
	return v
}

func (r *snapReader) u64() uint64 {
	if r.bad || len(r.data)-r.i < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.i:])
	r.i += 8
	return v
}

// varint reads a zigzag varint, which must be in its shortest form.
func (r *snapReader) varint() int64 {
	if r.bad {
		return 0
	}
	v, n := binary.Varint(r.data[r.i:])
	if n <= 0 || (n > 1 && r.data[r.i+n-1] == 0) {
		r.bad = true
		return 0
	}
	r.i += n
	return v
}

func (r *snapReader) i64() int64   { return int64(r.u64()) }
func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *snapReader) sliceLen() int {
	n := int(r.u32())
	if n > maxSnapshotSlice || (!r.bad && n > len(r.data)-r.i) {
		r.bad = true
		return 0
	}
	return n
}

func (r *snapReader) bytes(n int) []byte {
	if r.bad || len(r.data)-r.i < n {
		r.bad = true
		return nil
	}
	b := r.data[r.i : r.i+n]
	r.i += n
	return b
}

// DecodeSnapshot parses an encoded snapshot, HSN3 or HSN2. It is total
// on arbitrary bytes and rejects any damage: bad magic, truncation,
// trailing bytes, non-canonical booleans and varints, a trace that
// does not parse (trace.ParseLog) and CRC mismatches all fail with an
// error.
func DecodeSnapshot(b []byte) (*RunSnapshot, error) {
	if len(b) >= len(retiredMagic) && string(b[:4]) == string(retiredMagic[:]) {
		return nil, fmt.Errorf("durable: %w", ErrOpLogSnapshot)
	}
	if len(b) < len(snapMagic)+4 || (string(b[:4]) != string(snapMagic[:]) && string(b[:4]) != string(hsn2Magic[:])) {
		return nil, fmt.Errorf("durable: not a snapshot")
	}
	hsn2 := string(b[:4]) == string(hsn2Magic[:])
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("durable: snapshot CRC mismatch")
	}
	r := snapReader{data: body, i: 4}
	s := &RunSnapshot{}
	s.ID = string(r.bytes(int(r.u16())))
	s.Mutations = r.u64()
	switch flag := r.bytes(1); {
	case r.bad:
	case flag[0] == 1:
		s.Expired = true
	case flag[0] != 0:
		return nil, fmt.Errorf("durable: snapshot has non-canonical bool %d", flag[0])
	}
	if n := r.sliceLen(); n > 0 {
		s.Request = append([]byte(nil), r.bytes(n)...)
	}
	for _, p := range [...]*int64{
		&s.CreatedNs, &s.StartNs, &s.LastNs, &s.LastPollNs,
		&s.Assigned, &s.Completed, &s.Reclaimed, &s.Blocks, &s.Requests, &s.Polls,
		&s.BatchN,
	} {
		*p = r.i64()
	}
	for _, p := range [...]*float64{&s.BatchMean, &s.BatchM2, &s.BatchMin, &s.BatchMax} {
		*p = r.f64()
	}
	if n := r.sliceLen(); n > 0 && !r.bad {
		s.BatchHist = make([]int64, n)
		for i := range s.BatchHist {
			s.BatchHist[i] = r.i64()
		}
	}
	if n := r.sliceLen(); n > 0 && !r.bad {
		s.Workers = make([]WorkerCounters, n)
		for i := range s.Workers {
			s.Workers[i] = WorkerCounters{
				Requests:  r.i64(),
				Tasks:     r.i64(),
				Blocks:    r.i64(),
				Reclaimed: r.i64(),
			}
		}
	}
	readTrace := r.hsn3Trace
	if hsn2 {
		readTrace = r.hsn2Trace
	}
	if err := readTrace(&s.Trace, len(s.Workers)); err != nil {
		return nil, err
	}
	if n := r.sliceLen(); n > 0 && !r.bad {
		s.Open = make([]int32, n)
		for i := range s.Open {
			s.Open[i] = int32(r.u32())
		}
	}
	if n := r.sliceLen(); n > 0 && !r.bad {
		s.Grants = make([]Grant, n)
		for i := range s.Grants {
			s.Grants[i] = Grant{
				Task:     r.i64(),
				ExpiryNs: r.i64(),
				Worker:   int32(r.u32()),
			}
		}
	}
	if n := r.sliceLen(); n > 0 && !r.bad {
		s.Stains = make([]Stain, n)
		for i := range s.Stains {
			s.Stains[i] = Stain{Task: r.i64(), Worker: int32(r.u32())}
		}
	}
	if n := r.sliceLen(); n > 0 {
		s.Driver = append([]byte(nil), r.bytes(n)...)
	}
	if r.bad {
		return nil, fmt.Errorf("durable: snapshot truncated")
	}
	if r.i != len(body) {
		return nil, fmt.Errorf("durable: %d trailing bytes in snapshot", len(body)-r.i)
	}
	return s, nil
}

// hsn3Trace reads a trace — count, records, end deltas — into l over p
// workers.
func (r *snapReader) hsn3Trace(l *trace.Log, p int) error {
	n := r.sliceLen()
	recs := append([]byte(nil), r.bytes(r.sliceLen())...)
	ends := make([]int64, n)
	prev := int64(0)
	for i := range ends {
		prev += r.varint()
		ends[i] = prev
	}
	if r.bad {
		return nil // reported as truncation
	}
	tl, err := trace.ParseLog(recs, ends, p)
	if err != nil {
		return fmt.Errorf("durable: snapshot trace: %w", err)
	}
	*l = tl
	return nil
}

// hsn2Trace reads an HSN2 trace — n segments of proc, start and end in
// float seconds, tasks and blocks — into l over p workers.
func (r *snapReader) hsn2Trace(l *trace.Log, p int) error {
	n := r.sliceLen()
	for i := 0; i < n && !r.bad; i++ {
		proc, start, end, tasks, blocks := r.i64(), r.f64(), r.f64(), r.i64(), r.i64()
		if proc < 0 || proc >= int64(p) || tasks < 0 || tasks > math.MaxInt32 || blocks < 0 || blocks > math.MaxInt32 {
			return fmt.Errorf("durable: snapshot segment %d is out of range", i)
		}
		startNs, ok1 := trace.SecondsToNs(start)
		endNs, ok2 := trace.SecondsToNs(end)
		if !ok1 || !ok2 {
			return fmt.Errorf("durable: %w", ErrInexactTrace)
		}
		l.SetEnd(l.Append(int(proc), startNs, int(tasks), int(blocks)), endNs)
	}
	return nil
}

// WriteSnapshot atomically persists s into the journal directory as
// snap-<id>-<mutations>.snap: encode, write to a tmp file, fsync,
// rename. A crash at any point leaves either the complete new file or
// the previous state — never a half-written snapshot under the final
// name (and a half-written tmp fails its CRC anyway).
func (l *Log) WriteSnapshot(s *RunSnapshot) error {
	data := AppendSnapshot(nil, s)
	final := filepath.Join(l.dir, snapshotName(s.ID, s.Mutations))
	tmp, err := os.CreateTemp(l.dir, tmpPrefix+"snap-*")
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// LoadSnapshots reads every snapshot in the journal directory and
// returns the highest-watermark valid snapshot per run. Damaged files
// — the residue of a crash mid-checkpoint — are skipped: the older
// snapshot plus the longer journal suffix wins. A file in the retired
// op-log format fails the load (ErrOpLogSnapshot), naming the file.
func (l *Log) LoadSnapshots() (map[string]*RunSnapshot, error) {
	_, snaps, err := scanDir(l.dir)
	if err != nil {
		return nil, err
	}
	best := make(map[string]*RunSnapshot)
	for _, sf := range snaps {
		s, err := readSnapshot(l.dir, sf)
		if err != nil {
			return nil, err
		}
		if s == nil {
			continue
		}
		if prev, ok := best[sf.id]; !ok || prev.Mutations < s.Mutations {
			best[s.ID] = s
		}
	}
	return best, nil
}

// readSnapshot reads one snapshot file: nil when it is unreadable or
// damaged, an error only when it is in the retired format or is an
// HSN2 file with an inexact trace time.
func readSnapshot(dir string, sf snapFile) (*RunSnapshot, error) {
	data, err := os.ReadFile(filepath.Join(dir, sf.name))
	if err != nil {
		return nil, nil
	}
	s, err := DecodeSnapshot(data)
	for _, fatal := range [...]error{ErrOpLogSnapshot, ErrInexactTrace} {
		if errors.Is(err, fatal) {
			return nil, fmt.Errorf("durable: %s: %w", sf.name, fatal)
		}
	}
	if err != nil || s.ID != sf.id {
		return nil, nil
	}
	return s, nil
}
