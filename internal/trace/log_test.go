package trace

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"
)

// TestSecondsToNsInvertsSeconds: for random durations, small and over
// the whole int64 range, and the edges, the inverse returns a count
// that renders to the same float, bit for bit.
func TestSecondsToNsInvertsSeconds(t *testing.T) {
	ds := []time.Duration{0, 1, -1, 1 << 53, -1 << 53, 1<<53 + 1, -1<<53 - 1,
		math.MinInt64 + 1, math.MinInt64, math.MaxInt64, time.Second, -time.Second}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		ds = append(ds, time.Duration(r.Int64()), time.Duration(r.Int64N(1e12)-5e11))
	}
	for _, d := range ds {
		s := d.Seconds()
		ns, ok := SecondsToNs(s)
		if !ok || math.Float64bits(time.Duration(ns).Seconds()) != math.Float64bits(s) {
			t.Fatalf("SecondsToNs(%v = %g s) = %d, %v: renders %g", int64(d), s, ns, ok, time.Duration(ns).Seconds())
		}
	}
}

// TestSecondsToNsRefusesWhatNoCountRenders covers the floats no int64
// nanosecond count renders to.
func TestSecondsToNsRefusesWhatNoCountRenders(t *testing.T) {
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		0.5e-9, -1.5e-9, 1e300, -1e19, time.Duration(math.MaxInt64).Seconds() * 2} {
		if ns, ok := SecondsToNs(s); ok {
			t.Errorf("SecondsToNs(%g) = %d, want none", s, ns)
		}
	}
}

// TestLogRendersAndParses: a log renders its appended and patched
// records, negative starts and ends included, and ParseLog rebuilds it
// from its records and ends.
func TestLogRendersAndParses(t *testing.T) {
	var l Log
	a := l.Append(2, 1500, 4, 9)
	l.Append(0, -3_000_000_000, 1, 1)
	l.SetEnd(a, 2_000_000_000)
	l.Append(1, math.MaxInt64, math.MaxInt32, 0)
	want := []Segment{
		{Proc: 2, Start: 1.5e-6, End: 2, Tasks: 4, Blocks: 9},
		{Proc: 0, Start: -3, End: -3, Tasks: 1, Blocks: 1},
		{Proc: 1, Start: time.Duration(math.MaxInt64).Seconds(), End: time.Duration(math.MaxInt64).Seconds(), Tasks: math.MaxInt32},
	}
	if got := l.Trace(3); got.P != 3 || !reflect.DeepEqual(got.Segments, want) {
		t.Fatalf("rendered %+v, want %+v", got.Segments, want)
	}
	back, err := ParseLog(append([]byte(nil), l.Records()...), append([]int64(nil), l.Ends()...), 3)
	if err != nil || !reflect.DeepEqual(back, l) {
		t.Fatalf("ParseLog = %+v, %v; want %+v", back, err, l)
	}
	// The parsed log appends where the original would.
	back.Append(0, 7, 1, 1)
	l.Append(0, 7, 1, 1)
	if !reflect.DeepEqual(back.Trace(3), l.Trace(3)) {
		t.Fatal("a parsed log appends differently from the original")
	}
	if got := (&Log{}).Trace(2); got.Segments != nil {
		t.Fatalf("empty log renders %#v, want nil segments", got.Segments)
	}
}

// TestParseLogRejects: ParseLog accepts only what Append writes.
func TestParseLogRejects(t *testing.T) {
	rec := func(fields ...uint64) []byte {
		b := binary.AppendVarint(nil, int64(fields[0]))
		for _, f := range fields[1:] {
			b = binary.AppendUvarint(b, f)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		recs []byte
		n    int
	}{
		{"fewer records", rec(0, 0, 1, 1), 2},
		{"trailing bytes", append(rec(0, 0, 1, 1), 0), 1},
		{"records without ends", rec(0, 0, 1, 1), 0},
		{"truncated", rec(0, 0, 1, 1)[:3], 1},
		{"proc past p", rec(0, 2, 1, 1), 1},
		{"count past MaxInt32", rec(0, 0, math.MaxInt32+1, 1), 1},
		{"non-minimal start", []byte{0x80, 0x00, 0, 1, 1}, 1},
		{"non-minimal blocks", []byte{0, 0, 1, 0x81, 0x00}, 1},
		{"overlong varint", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 1, 1}, 1},
	} {
		if _, err := ParseLog(tc.recs, make([]int64, tc.n), 2); !errors.Is(err, errBadLog) {
			t.Errorf("%s: ParseLog = %v, want %v", tc.name, err, errBadLog)
		}
	}
}
