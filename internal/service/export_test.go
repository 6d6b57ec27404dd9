package service

import (
	"encoding/binary"
	"fmt"
	"math"

	"hetsched/internal/core"
	"hetsched/internal/durable"
)

// Fenced reports whether the host is currently fenced (pending or
// committed). Only the migration tests ask.
func (h *Host) Fenced() bool { return h.fence.Load() != fenceNone }

// restoreFromSnapshot cuts run's snapshot, round-trips it through its
// HSN3 bytes and restores a host from it on a fresh driver, as
// recovery does before it replays the journal's tail.
func restoreFromSnapshot(run *Run) (*Host, error) {
	s, err := durable.DecodeSnapshot(durable.AppendSnapshot(nil, run.snapshot()))
	if err != nil {
		return nil, err
	}
	rec, err := decodeCreateRecord(s.Request)
	if err != nil {
		return nil, err
	}
	q := rec.request()
	drv, err := NewDriver(&q)
	if err != nil {
		return nil, err
	}
	return restoreHost(drv, rec, s)
}

// The binary frame's client half: the server decodes requests and
// encodes responses (codec.go); the tests also build requests and read
// responses.

// AppendNextRequestFrame appends the binary-frame encoding of a poll
// request to dst.
func AppendNextRequestFrame(dst []byte, worker int64, completed []int64) []byte {
	dst = append(dst, frameMagic0, frameMagic1, frameReq)
	dst = appendUvarint(dst, zigzag(worker))
	dst = appendUvarint(dst, uint64(len(completed)))
	for _, t := range completed {
		dst = appendUvarint(dst, zigzag(t))
	}
	return dst
}

// AppendNextResponseFrame appends the binary-frame encoding of a poll
// response to dst. Statuses outside the protocol's three reject rather
// than silently truncating the enum.
func AppendNextResponseFrame(dst []byte, resp *NextResponse) ([]byte, error) {
	tasks := make([]core.Task, len(resp.Tasks))
	for i, t := range resp.Tasks {
		tasks[i] = core.Task(t)
	}
	if _, ok := statusCodes[resp.Status]; !ok {
		return dst, fmt.Errorf("frame: status %q has no wire code", resp.Status)
	}
	return appendNextResponseFrame(dst, resp.Status, tasks, resp.Blocks, resp.LeaseSeconds), nil
}

// DecodeNextRequestFrame parses a poll-request frame into the wire
// struct.
func DecodeNextRequestFrame(data []byte) (NextRequest, error) {
	worker, completed, err := decodeNextRequestFrame(data, nil)
	if err != nil {
		return NextRequest{}, err
	}
	q := NextRequest{Worker: int(worker)}
	if len(completed) > 0 {
		q.Completed = make([]int64, len(completed))
		for i, t := range completed {
			q.Completed[i] = int64(t)
		}
	}
	return q, nil
}

// DecodeNextResponseFrame parses a poll-response frame into the wire
// struct. The lease field is decoded unconditionally (the frame always
// carries it); zero means what an absent JSON field means.
func DecodeNextResponseFrame(data []byte) (NextResponse, error) {
	if len(data) < 4 || data[0] != frameMagic0 || data[1] != frameMagic1 {
		return NextResponse{}, fmt.Errorf("frame: bad magic")
	}
	if data[2] != frameResp {
		return NextResponse{}, fmt.Errorf("frame: message type %#02x is not a response", data[2])
	}
	code := data[3]
	if int(code) >= len(statusNames) || statusNames[code] == "" {
		return NextResponse{}, fmt.Errorf("frame: unknown status code %d", code)
	}
	r := frameReader{data: data, i: 4}
	count := r.uvarint()
	if count > uint64(len(data)) {
		return NextResponse{}, fmt.Errorf("frame: task count %d exceeds frame size", count)
	}
	resp := NextResponse{Status: statusNames[code]}
	if count > 0 {
		resp.Tasks = make([]int64, 0, count)
		for k := uint64(0); k < count; k++ {
			resp.Tasks = append(resp.Tasks, r.svarint())
		}
	}
	resp.Blocks = int(r.svarint())
	resp.LeaseSeconds = r.float64()
	if !r.done() {
		if r.bad {
			return NextResponse{}, fmt.Errorf("frame: truncated response")
		}
		return NextResponse{}, fmt.Errorf("frame: %d trailing bytes", len(data)-r.i)
	}
	return resp, nil
}

// statusNames maps frame status bytes back onto the wire statuses.
var statusNames = [4]string{0: "", 1: StatusOK, 2: StatusWait, 3: StatusDone}

func (r *frameReader) float64() float64 {
	if r.i+8 > len(r.data) {
		r.bad = true
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.i:]))
	r.i += 8
	return v
}
