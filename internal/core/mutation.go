package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// MutationOp enumerates the replayable state transitions of a run.
// Together with Mutation they form the command-sourcing layer under
// internal/durable: because every Driver is a deterministic
// single-goroutine state machine, journaling the *inputs* of each
// transition (who polled, what they reported, when) is enough to
// rebuild the exact master state by re-executing the same code path.
type MutationOp uint8

const (
	// MutCreate records a run creation. Payload carries the canonical
	// resolved creation record (internal/service's createRecord JSON:
	// the validated request plus the resolved batch/lease and the
	// creation instant), so a replayed create never depends on the
	// restarted daemon's flag defaults.
	MutCreate MutationOp = iota + 1
	// MutPoll records one accepted worker poll: Worker reported Tasks
	// complete at TimeNs and was stepped through the driver. Rejected
	// polls (409 conflicts, stale reports, bad workers) mutate nothing
	// and are deliberately not journaled.
	MutPoll
	// MutReclaim records one lease-reclamation pass that expired at
	// least one grant at TimeNs. Passes that find nothing are
	// stateless scans and are not journaled.
	MutReclaim
	// MutExpire records the run being marked expired (explicit DELETE
	// or registry TTL).
	MutExpire
	// MutSwept records the janitor removing the run from the registry.
	MutSwept
)

// String names the op for diagnostics.
func (op MutationOp) String() string {
	switch op {
	case MutCreate:
		return "create"
	case MutPoll:
		return "poll"
	case MutReclaim:
		return "reclaim"
	case MutExpire:
		return "expire"
	case MutSwept:
		return "swept"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Mutation is one typed, replayable state transition of one run. Seq
// is the per-run mutation sequence number (the create is 1): snapshots
// record how many mutations they already contain, and recovery skips
// journal records with Seq at or below that watermark, so a snapshot
// plus any journal suffix that covers the rest replays to the exact
// live state.
type Mutation struct {
	Op      MutationOp
	Run     string
	Seq     uint64
	TimeNs  int64
	Worker  int32
	Tasks   []Task // completed report (MutPoll)
	Payload []byte // creation record (MutCreate)
}

// Mutation wire format (the payload inside a durable journal frame;
// framing and CRC are the journal's concern):
//
//	record := op(u8) runLen(uvarint) run seq(uvarint) timeNs(u64 LE)
//	          worker+1(uvarint) nTasks(uvarint) task(uvarint)*
//	          payloadLen(uvarint) payload
//
// Everything except timeNs is a varint: the journal's fsync tax is
// proportional to bytes written (measured ~3ns/byte amortized), so a
// steady-state poll record at ~40 bytes instead of ~80 is a real
// per-poll saving, and run ids, sequence numbers, worker indices and
// task ids are all small in practice. timeNs stays fixed 8-byte
// little-endian — UnixNanos never encode shorter. worker is offset by
// one so the registry records' -1 stays a 1-byte varint. The encoder
// is allocation-free into a reused buffer, and the decoder keeps the
// one decoding rule (state.go): it accepts exactly what the encoder
// writes, so AppendMutation(DecodeMutation(b)) == b
// (TestMutationRoundTrip and TestDecodeMutationRejects pin this).

// maxMutationTasks bounds the task count a decoder will accept; it is
// far above any real report (maxBatch is 1<<12) and exists so corrupt
// lengths fail fast instead of allocating gigabytes.
const maxMutationTasks = 1 << 24

// maxMutationPayload bounds the creation-record payload (the service
// caps request bodies at 1 MiB).
const maxMutationPayload = 1 << 21

// AppendMutation appends the wire encoding of one mutation to dst and
// returns the extended slice. Explicit arguments (rather than a
// *Mutation) keep the hot poll path free of an escaping composite
// literal.
func AppendMutation(dst []byte, op MutationOp, run string, seq uint64, timeNs int64, worker int32, tasks []Task, payload []byte) []byte {
	if worker < -1 {
		panic("core: worker below -1 exceeds mutation wire format")
	}
	dst = append(dst, byte(op))
	dst = binary.AppendUvarint(dst, uint64(len(run)))
	dst = append(dst, run...)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(timeNs))
	dst = binary.AppendUvarint(dst, uint64(int64(worker)+1))
	dst = binary.AppendUvarint(dst, uint64(len(tasks)))
	for _, t := range tasks {
		dst = binary.AppendUvarint(dst, uint64(t))
	}
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return dst
}

// DecodeMutation parses one mutation record occupying exactly b. It is
// total on arbitrary bytes and reads through a StateReader: any
// truncation, padded varint, trailing garbage or insane length fails
// with an error, never a panic. The returned Tasks and Payload are
// fresh copies — they do not alias b.
func DecodeMutation(b []byte) (Mutation, error) {
	var m Mutation
	r := NewStateReader(b)
	if op := r.Bytes(1); op != nil {
		if m.Op = MutationOp(op[0]); m.Op < MutCreate || m.Op > MutSwept {
			return Mutation{}, fmt.Errorf("core: unknown mutation op %#02x", op[0])
		}
	}
	m.Run = string(r.Bytes(r.Int(len(b), "run id length")))
	m.Seq = r.Uvarint()
	m.TimeNs = int64(r.Word())
	m.Worker = int32(r.Int(1<<31, "worker+1") - 1)
	// Each task takes a byte, so a count past len(b) is refused before
	// it sizes an allocation.
	if n := r.Int(min(maxMutationTasks, len(b)), "task count"); n > 0 {
		m.Tasks = make([]Task, n)
		for j := range m.Tasks {
			m.Tasks[j] = Task(r.Uvarint())
		}
	}
	if n := r.Int(maxMutationPayload, "payload length"); n > 0 {
		m.Payload = bytes.Clone(r.Bytes(n))
	}
	if err := r.Done(); err != nil {
		return Mutation{}, err
	}
	return m, nil
}
