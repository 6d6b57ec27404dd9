package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// spelled is a mutation record field by field, in wire order; a row of
// TestDecodeMutationRejects respells one field.
type spelled [10][]byte

var spelledFields = [10]string{"op", "run length", "run", "seq", "time", "worker", "task count", "tasks", "payload length", "payload"}

func (s spelled) bytes() []byte { return slices.Concat(s[:]...) }

// uv spells a minimal uvarint; padded spells the same value one byte
// longer, with a 0x00 continuation byte.
func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

func padded(v uint64) []byte {
	b := uv(v)
	b[len(b)-1] |= 0x80
	return append(b, 0)
}

// goodRecord spells a poll by worker 2 of run "r1" at seq 7 reporting
// tasks 5 and 300, with a two-byte payload, as AppendMutation writes it.
func goodRecord() spelled {
	return spelled{
		{byte(MutPoll)}, uv(2), []byte("r1"), uv(7),
		binary.LittleEndian.AppendUint64(nil, 100), uv(3),
		uv(2), append(uv(5), uv(300)...), uv(2), []byte("{}"),
	}
}

func TestDecodeMutationRejects(t *testing.T) {
	good := goodRecord()
	if _, err := DecodeMutation(good.bytes()); err != nil {
		t.Fatalf("the untouched record: %v", err)
	}
	with := func(field int, b []byte) []byte {
		s := goodRecord()
		s[field] = b
		return s.bytes()
	}
	cases := []struct {
		name string
		b    []byte
		want string
	}{
		{"padded run length", with(1, padded(2)), "non-minimal"},
		{"padded seq", with(3, padded(7)), "non-minimal"},
		{"padded worker", with(5, padded(3)), "non-minimal"},
		{"padded task count", with(6, padded(2)), "non-minimal"},
		{"padded task", with(7, append(padded(5), uv(300)...)), "non-minimal"},
		{"padded payload length", with(8, padded(2)), "non-minimal"},
		{"unknown op 0", with(0, []byte{0}), "unknown mutation op"},
		{"unknown op past swept", with(0, []byte{byte(MutSwept) + 1}), "unknown mutation op"},
		{"worker+1 above 2^31", with(5, uv(1<<31+1)), "worker+1"},
		{"run length past the record", with(1, uv(200)), "run id length"},
		{"task count past the record", with(6, uv(200)), "task count"},
		{"payload length past the record", with(8, uv(200)), "truncated"},
		{"payload length past its bound", with(8, uv(maxMutationPayload+1)), "payload length"},
		{"trailing bytes", append(good.bytes(), 0), "trailing"},
	}
	// Truncation in each field: the fields before it whole, half of it.
	for i, name := range spelledFields {
		s := goodRecord()
		b := slices.Concat(s[:i]...)
		cases = append(cases, struct {
			name string
			b    []byte
			want string
		}{"truncated in " + name, append(b, s[i][:len(s[i])/2]...), "truncated"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := DecodeMutation(tc.b)
			if err == nil {
				t.Fatalf("DecodeMutation(%x) accepted %+v", tc.b, m)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestMutationRoundTrip: AppendMutation, DecodeMutation and
// AppendMutation again write the same bytes, and the decoded mutation
// is the one appended.
func TestMutationRoundTrip(t *testing.T) {
	for _, m := range []Mutation{
		{Op: MutCreate, Run: "r1", Seq: 1, TimeNs: 1_700_000_000_000_000_000, Worker: -1, Payload: []byte(`{"id":"r1","kernel":"outer"}`)},
		{Op: MutPoll, Run: "r1", Seq: 2, TimeNs: 200, Worker: 0},
		{Op: MutPoll, Run: "a-longer-run-id", Seq: 1 << 40, TimeNs: -5, Worker: 1<<31 - 1, Tasks: []Task{0, 127, 128, 1 << 20, -1}},
		{Op: MutReclaim, Run: "r1", Seq: 300, TimeNs: 400, Worker: -1},
		{Op: MutExpire, Run: "", Seq: 0, Worker: -1},
		{Op: MutSwept, Run: "r1", Seq: 6, TimeNs: 600, Worker: -1},
	} {
		b := AppendMutation(nil, m.Op, m.Run, m.Seq, m.TimeNs, m.Worker, m.Tasks, m.Payload)
		got, err := DecodeMutation(b)
		if err != nil {
			t.Fatalf("%v: %v", m.Op, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%v: decoded %+v, want %+v", m.Op, got, m)
		}
		if re := AppendMutation(nil, got.Op, got.Run, got.Seq, got.TimeNs, got.Worker, got.Tasks, got.Payload); !bytes.Equal(re, b) {
			t.Fatalf("%v: re-encoded %x, want %x", m.Op, re, b)
		}
	}
}
