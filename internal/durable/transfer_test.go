package durable

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"hetsched/internal/core"
)

// recordedMigration journals a short run life (create, polls, a
// reclaim), snapshots it mid-stream and keeps appending, then
// scavenges the transfer stream exactly the way the death path does.
// The result is a realistic snapshot+tail stream for tests and fuzz
// seeds.
func recordedMigration(t testing.TB) []byte {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	l.AppendCreate("mig-r1", 1, 100, []byte(`{"id":"mig-r1","kernel":"outer"}`))
	l.AppendPoll("mig-r1", 2, 200, 0, nil)
	l.AppendPoll("mig-r1", 3, 300, 1, []core.Task{1, 2})
	if err := l.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	snap := goldenSnapshot()
	snap.ID, snap.Mutations = "mig-r1", 3
	if err := l.WriteSnapshot(snap); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	l.AppendReclaim("mig-r1", 4, 400)
	l.AppendPoll("mig-r1", 5, 500, 0, []core.Task{3})
	if err := l.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	runs, err := ReadRuns(dir)
	if err != nil || len(runs) != 1 || runs[0].Err != nil {
		t.Fatalf("ReadRuns = %+v, %v; want mig-r1 alone", runs, err)
	}
	return AppendTransfer(nil, runs[0].Snap, runs[0].Tail)
}

func TestTransferRoundTrip(t *testing.T) {
	stream := recordedMigration(t)
	snap, tail, err := DecodeTransfer(stream)
	if err != nil {
		t.Fatalf("decode recorded migration: %v", err)
	}
	if snap == nil || snap.ID != "mig-r1" || snap.Mutations != 3 {
		t.Fatalf("snapshot = %+v, want mig-r1@3", snap)
	}
	if len(tail) != 2 || tail[0].Seq != 4 || tail[1].Seq != 5 {
		t.Fatalf("tail = %+v, want seq 4,5", tail)
	}
	if re := AppendTransfer(nil, snap, tail); !bytes.Equal(re, stream) {
		t.Fatalf("transfer encoding is not canonical:\n in  %x\n out %x", stream, re)
	}
}

func TestDecodeTransferRejects(t *testing.T) {
	good := recordedMigration(t)
	create := core.Mutation{Op: core.MutCreate, Run: "r1", Seq: 1, TimeNs: 10, Payload: []byte(`{}`)}
	poll := func(run string, seq uint64) core.Mutation {
		return core.Mutation{Op: core.MutPoll, Run: run, Seq: seq, TimeNs: 20}
	}
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-3] ^= 0x40

	cases := map[string]struct {
		b    []byte
		want string
	}{
		"empty input":        {nil, "not a transfer stream"},
		"bad magic":          {[]byte("HTX2\x00"), "not a transfer stream"},
		"bad flag":           {[]byte("HTX1\x07"), "non-canonical snapshot flag"},
		"empty stream":       {AppendTransfer(nil, nil, nil), "empty transfer stream"},
		"snap len truncated": {append([]byte("HTX1\x01"), 0xff), "snapshot length truncated"},
		"snap truncated":     {good[:len(transferMagic)+1+4+10], "snapshot truncated"},
		"frame torn":         {good[:len(good)-3], "frame truncated"},
		"header torn":        {good[:len(good)-1], "frame"},
		"frame corrupt":      {corrupt, "CRC mismatch"},
		"trailing bytes":     {append(append([]byte(nil), good...), 0xaa), "frame header truncated"},
		"no create first": {
			AppendTransfer(nil, nil, []core.Mutation{poll("r1", 1)}),
			"must start with create seq 1",
		},
		"create not seq 1": {
			AppendTransfer(nil, nil, []core.Mutation{{Op: core.MutCreate, Run: "r1", Seq: 2, Payload: []byte(`{}`)}}),
			"must start with create seq 1",
		},
		"mixed runs": {
			AppendTransfer(nil, nil, []core.Mutation{create, poll("r2", 2)}),
			"mixes runs",
		},
		"sequence gap": {
			AppendTransfer(nil, nil, []core.Mutation{create, poll("r1", 3)}),
			"sequence gap",
		},
		"gap above snapshot": {
			AppendTransfer(nil, &RunSnapshot{ID: "r1", Mutations: 3, Request: []byte(`{}`)},
				[]core.Mutation{poll("r1", 5)}),
			"sequence gap",
		},
		"snapshot tail mismatch": {
			AppendTransfer(nil, &RunSnapshot{ID: "other", Mutations: 3, Request: []byte(`{}`)},
				[]core.Mutation{poll("r1", 4)}),
			"mixes runs",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, _, err := DecodeTransfer(tc.b)
			if err == nil {
				t.Fatalf("decode accepted damaged stream")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzTransferDecode is the differential fuzzer for the migration wire
// format. Two properties, pinned on arbitrary bytes:
//
//	totality  — DecodeTransfer never panics; truncation, corruption and
//	            trailing bytes are rejected with an error;
//	canonical — any accepted stream re-encodes bit-for-bit:
//	            AppendTransfer(nil, DecodeTransfer(b)) == b, so the
//	            destination's re-export of an imported run reproduces
//	            the source's stream exactly. A stream embedding an
//	            HSN2 snapshot, which only an older host writes,
//	            re-encodes with HSN3 and decodes to the same run.
func FuzzTransferDecode(f *testing.F) {
	recorded := recordedMigration(f)
	f.Add(recorded)
	f.Add(recorded[:len(recorded)-5])
	mangled := append([]byte(nil), recorded...)
	mangled[len(mangled)/2] ^= 0x80
	f.Add(mangled)
	f.Add(append(append([]byte(nil), recorded...), 0x00))
	f.Add(AppendTransfer(nil, goldenSnapshot(), nil))
	f.Add(AppendTransfer(nil, nil, []core.Mutation{
		{Op: core.MutCreate, Run: "r1", Seq: 1, TimeNs: 10, Payload: []byte(`{"id":"r1"}`)},
		{Op: core.MutPoll, Run: "r1", Seq: 2, TimeNs: 20, Worker: 1, Tasks: []core.Task{7}},
	}))
	f.Add([]byte{})
	f.Add([]byte("HTX1"))
	f.Add([]byte("HTX1\x00"))
	f.Add([]byte("HTX1\x01\x00\x00\x00\x00"))
	hsn2 := hsn2Fixture(f)
	f.Add(append(binary.LittleEndian.AppendUint32([]byte("HTX1\x01"), uint32(len(hsn2))), hsn2...))

	f.Fuzz(func(t *testing.T, b []byte) {
		snap, tail, err := DecodeTransfer(b)
		if err != nil {
			return
		}
		if snap == nil && len(tail) == 0 {
			t.Fatalf("accepted stream with neither snapshot nor tail")
		}
		re := AppendTransfer(nil, snap, tail)
		if snap != nil && string(b[9:13]) == string(hsn2Magic[:]) {
			s2, tail2, err := DecodeTransfer(re)
			if err != nil || !reflect.DeepEqual(s2, snap) || !reflect.DeepEqual(tail2, tail) {
				t.Fatalf("accepted transfer with an HSN2 snapshot does not survive HSN3 (%v)", err)
			}
			return
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("accepted transfer is not canonical:\n in  %x\n out %x", b, re)
		}
	})
}
