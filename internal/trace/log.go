package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"hetsched/internal/core"
)

// Log is a served run's trace in the form the run keeps and its
// snapshot ships: one record per assignment, in grant order, and the
// assignments' ends beside them. Times are integer nanoseconds since
// the run's start, so Trace renders exactly what the host measured:
// time.Duration(ns).Seconds() is the float a Duration's Seconds gave.
//
// A record is the start minus the previous record's start as a zigzag
// varint (a run recovered on a clock behind its start has negative
// starts, so a delta may be negative), then proc, tasks and blocks as
// uvarints, each at most MaxInt32. Ends change after the grant — a
// batch ends when it is reported — so they are kept apart, one int64
// per record, and patched in place with SetEnd.
//
// A log no longer written to can be packed (Pack): its ends are then
// kept as the zigzag varint deltas a snapshot writes (AppendEnds) and
// its records clipped to their length. Reads decode a packed log on
// demand; Append and SetEnd unpack it first.
type Log struct {
	recs []byte
	ends []int64
	// packed holds the ends in AppendEnds form while the log is packed;
	// ends is nil then.
	packed []byte
	last   int64 // start of the last record
}

// Append records an assignment of tasks tasks and blocks blocks to proc
// at startNs, open (End == Start) until SetEnd closes it, and returns
// its index.
func (l *Log) Append(proc int, startNs int64, tasks, blocks int) int {
	if l.packed != nil {
		l.unpack()
	}
	l.recs = binary.AppendVarint(l.recs, startNs-l.last)
	l.recs = binary.AppendUvarint(l.recs, uint64(proc))
	l.recs = binary.AppendUvarint(l.recs, uint64(tasks))
	l.recs = binary.AppendUvarint(l.recs, uint64(blocks))
	l.last = startNs
	l.ends = append(l.ends, startNs)
	return len(l.ends) - 1
}

// SetEnd sets the end of record i.
func (l *Log) SetEnd(i int, ns int64) {
	if l.packed != nil {
		l.unpack()
	}
	l.ends[i] = ns
}

// Len returns the number of records.
func (l *Log) Len() int {
	if l.packed == nil {
		return len(l.ends)
	}
	n := 0
	for _, b := range l.packed {
		if b < 0x80 { // the last byte of a varint
			n++
		}
	}
	return n
}

// Records returns the encoded records, which the caller must not
// modify. With Ends they are the whole log: ParseLog(Records(), Ends())
// rebuilds it.
func (l *Log) Records() []byte { return l.recs }

// Ends returns the records' ends in nanoseconds, which the caller must
// not modify.
func (l *Log) Ends() []int64 {
	if l.packed == nil {
		return l.ends
	}
	ends := make([]int64, 0, l.Len())
	b, prev := l.packed, int64(0)
	for len(b) > 0 {
		d, n := binary.Varint(b)
		prev += d
		ends, b = append(ends, prev), b[n:]
	}
	return ends
}

// AppendEnds appends the records' ends to dst as a snapshot writes
// them: each end minus the previous record's end (the first's minus 0)
// as a zigzag varint. A packed log appends its ends verbatim.
func (l *Log) AppendEnds(dst []byte) []byte {
	if l.packed != nil {
		return append(dst, l.packed...)
	}
	prev := int64(0)
	for _, e := range l.ends {
		dst = binary.AppendVarint(dst, e-prev)
		prev = e
	}
	return dst
}

// Pack keeps the log in its compact form: the ends as AppendEnds
// writes them, the records clipped to their length. It is for a log no
// longer written to; a packed or empty log is left as it is.
func (l *Log) Pack() {
	if len(l.ends) == 0 {
		return
	}
	l.packed = bytes.Clone(l.AppendEnds(nil))
	l.recs = bytes.Clone(l.recs)
	l.ends = nil
}

// Packed reports whether the log is packed.
func (l *Log) Packed() bool { return l.packed != nil }

// unpack expands a packed log's ends for writing.
func (l *Log) unpack() {
	l.ends = l.Ends()
	l.packed = nil
}

// Clone returns a copy of l that shares no memory with it, packed if l
// is.
func (l *Log) Clone() Log {
	return Log{recs: append([]byte(nil), l.recs...), ends: append([]int64(nil), l.ends...),
		packed: append([]byte(nil), l.packed...), last: l.last}
}

// errBadLog reports records that ParseLog refuses.
var errBadLog = errors.New("trace: malformed segment log")

// ParseLog adopts recs and ends (no copy) as a Log. It is total and
// accepts only what Append writes: exactly len(ends) records under
// core.StateReader's rule, every proc below p and every count at most
// MaxInt32, and no trailing bytes.
func ParseLog(recs []byte, ends []int64, p int) (Log, error) {
	l := Log{recs: recs, ends: ends}
	r := core.NewStateReader(recs)
	for i := 0; i < len(ends) && r.Ok(); i++ {
		l.last += r.Varint()
		if proc := r.Int(math.MaxInt32, "proc"); proc >= p {
			r.Failf("trace: record %d is on proc %d of %d", i, proc, p)
		}
		r.Int(math.MaxInt32, "task count")
		r.Int(math.MaxInt32, "block count")
	}
	if err := r.Done(); err != nil {
		return Log{}, fmt.Errorf("%w: %w", errBadLog, err)
	}
	if len(l.recs) == 0 {
		l.recs = nil
	}
	if len(l.ends) == 0 {
		l.ends = nil
	}
	return l, nil
}

// Trace renders the log as a Trace over p processors.
func (l *Log) Trace(p int) *Trace {
	t := &Trace{P: p}
	ends := l.Ends()
	if len(ends) == 0 {
		return t
	}
	t.Segments = make([]Segment, len(ends))
	recs := l.recs
	start := int64(0)
	for i := range t.Segments {
		d, n := binary.Varint(recs)
		recs = recs[n:]
		start += d
		var v [3]uint64
		for k := range v {
			v[k], n = binary.Uvarint(recs)
			recs = recs[n:]
		}
		t.Segments[i] = Segment{
			Proc:   int(v[0]),
			Start:  time.Duration(start).Seconds(),
			End:    time.Duration(ends[i]).Seconds(),
			Tasks:  int(v[1]),
			Blocks: int(v[2]),
		}
	}
	return t
}

// SecondsToNs inverts time.Duration.Seconds: it returns a nanosecond
// count whose Seconds is s, bit for bit, and false when no count is —
// NaN, an infinity, -0, a value beyond the int64 range or one between
// two counts' renderings. Seconds is monotone in the count, so a binary
// search over all int64 values finds the least count that renders at
// least s.
func SecondsToNs(s float64) (int64, bool) {
	if s != s {
		return 0, false
	}
	// Search in the order-preserving unsigned image of int64.
	lo, hi := uint64(0), uint64(math.MaxUint64)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if time.Duration(int64(mid^1<<63)).Seconds() < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	ns := int64(lo ^ 1<<63)
	return ns, math.Float64bits(time.Duration(ns).Seconds()) == math.Float64bits(s)
}
