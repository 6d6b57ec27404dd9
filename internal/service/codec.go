package service

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"hetsched/internal/core"
)

// This file is the poll endpoint's wire codec: a hand-rolled JSON fast
// path and an opt-in binary frame, both allocation-free against
// caller-supplied buffers.
//
// JSON contract: the fast parser accepts a strict subset of what
// DecodeStrict accepts and hands anything outside it back to the
// stdlib (parseNextRequest returns ok=false), so acceptance/rejection
// behavior — and every error message — is the stdlib's; the fast path
// only ever shortcuts inputs whose meaning is beyond doubt. The fast
// encoder produces byte-for-byte what json.NewEncoder(w).Encode writes
// for a NextResponse (field order, omitempty, float formatting,
// trailing newline), which the differential fuzzers pin.
//
// Frame contract (Content-Type / Accept: application/x-schedd-frame):
//
//	frame   := 'S' '1' msgType payload
//	request := 0x01 zigzag(worker) uvarint(count) zigzag(task)*count
//	response:= 0x02 statusByte uvarint(count) zigzag(task)*count
//	           zigzag(blocks) float64le(lease_seconds)
//
// Varints are encoding/binary's; zigzag carries the signed values so a
// malicious negative worker survives the trip and is rejected by the
// Host exactly like its JSON twin. Truncated or trailing bytes reject
// the whole frame: a length-framed protocol that silently ignored a
// tail would mask client bugs.

// ContentTypeFrame negotiates the binary poll frame. A worker sends
// its request with this Content-Type to have the body parsed as a
// frame, and lists it in Accept to receive the response as one;
// protocol errors still arrive as JSON with an HTTP error status.
const ContentTypeFrame = "application/x-schedd-frame"

const (
	frameMagic0 = 'S'
	frameMagic1 = '1'
	frameReq    = 0x01
	frameResp   = 0x02
)

// statusCodes maps the wire statuses onto frame bytes. The zero value
// is deliberately not used so an all-zero buffer cannot pass for a
// valid frame.
var statusCodes = map[string]byte{
	StatusOK:   1,
	StatusWait: 2,
	StatusDone: 3,
}

// --- JSON fast path ---------------------------------------------------

// jsonSpace reports JSON insignificant whitespace.
func jsonSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// skipSpace advances past whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && jsonSpace(data[i]) {
		i++
	}
	return i
}

// parseJSONInt scans a JSON integer literal at data[i:], rejecting
// anything the fast path should not decide itself: fractions,
// exponents, leading zeros, overflow. ok=false means "fall back to
// encoding/json", not "malformed".
func parseJSONInt(data []byte, i int) (v int64, next int, ok bool) {
	neg := false
	if i < len(data) && data[i] == '-' {
		neg = true
		i++
	}
	start := i
	var u uint64
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		d := uint64(data[i] - '0')
		if u > (math.MaxUint64-d)/10 {
			return 0, i, false
		}
		u = u*10 + d
		i++
	}
	if i == start {
		return 0, i, false
	}
	if data[start] == '0' && i-start > 1 {
		return 0, i, false // leading zero: let the stdlib rule on it
	}
	// A fraction or exponent would change the value: not ours to parse.
	if i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E') {
		return 0, i, false
	}
	if neg {
		if u > uint64(math.MaxInt64)+1 {
			return 0, i, false
		}
		return -int64(u), i, true
	}
	if u > math.MaxInt64 {
		return 0, i, false
	}
	return int64(u), i, true
}

// parseNextRequest is the zero-copy strict decode of a poll body:
// worker and completed keys in either order, each at most once, values
// plain integer literals, nothing else. Completed tasks are appended
// to buf[:0] so a steady-state worker costs no allocation. ok=false
// means the input is outside the fast subset (not necessarily
// invalid) and the caller must re-parse with DecodeStrict on the same
// bytes for the authoritative verdict and error text.
func parseNextRequest(data []byte, buf []core.Task) (worker int64, completed []core.Task, ok bool) {
	completed = buf[:0]
	i := skipSpace(data, 0)
	if i >= len(data) || data[i] != '{' {
		return 0, completed, false
	}
	i = skipSpace(data, i+1)
	sawWorker, sawCompleted := false, false
	for {
		if i >= len(data) {
			return 0, completed, false
		}
		if data[i] == '}' {
			i++
			break
		}
		if sawWorker || sawCompleted {
			if data[i] != ',' {
				return 0, completed, false
			}
			i = skipSpace(data, i+1)
		}
		// Key: a plain quoted name with no escapes.
		if i >= len(data) || data[i] != '"' {
			return 0, completed, false
		}
		keyStart := i + 1
		j := keyStart
		for j < len(data) && data[j] != '"' && data[j] != '\\' {
			j++
		}
		if j >= len(data) || data[j] != '"' {
			return 0, completed, false
		}
		key := data[keyStart:j]
		i = skipSpace(data, j+1)
		if i >= len(data) || data[i] != ':' {
			return 0, completed, false
		}
		i = skipSpace(data, i+1)
		switch string(key) {
		case "worker":
			if sawWorker {
				return 0, completed, false // duplicate key: stdlib semantics, not ours
			}
			sawWorker = true
			var okInt bool
			worker, i, okInt = parseJSONInt(data, i)
			if !okInt {
				return 0, completed, false
			}
		case "completed":
			if sawCompleted {
				return 0, completed, false
			}
			sawCompleted = true
			if i >= len(data) || data[i] != '[' {
				return 0, completed, false
			}
			i = skipSpace(data, i+1)
			if i < len(data) && data[i] == ']' {
				i++
				break
			}
			for {
				v, next, okInt := parseJSONInt(data, i)
				if !okInt {
					return 0, completed, false
				}
				completed = append(completed, core.Task(v))
				i = skipSpace(data, next)
				if i >= len(data) {
					return 0, completed, false
				}
				if data[i] == ',' {
					i = skipSpace(data, i+1)
					continue
				}
				if data[i] == ']' {
					i++
					break
				}
				return 0, completed, false
			}
		default:
			return 0, completed, false // unknown key: DecodeStrict owns that rejection
		}
		i = skipSpace(data, i)
	}
	if skipSpace(data, i) != len(data) {
		return 0, completed, false // trailing bytes: strict decode rejects, so must we
	}
	return worker, completed, true
}

// appendJSONFloat replicates encoding/json's float formatting: %f
// unless the magnitude calls for %e, whose exponent then loses a
// leading zero ("e-09" → "e-9"). f must be finite, as a lease is.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendNextResponseJSON writes the poll response exactly as
// json.NewEncoder would (including the trailing newline), building it
// from the host's native types so the hot path never materializes a
// NextResponse or a []int64 copy. status is one of the protocol's
// three, which need no escaping, and the lease is finite.
func appendNextResponseJSON(dst []byte, status string, tasks []core.Task, blocks int, leaseSeconds float64) []byte {
	dst = append(dst, `{"status":"`...)
	dst = append(dst, status...)
	dst = append(dst, '"')
	if len(tasks) > 0 {
		dst = append(dst, `,"tasks":[`...)
		for k, t := range tasks {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(t), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"blocks":`...)
	dst = strconv.AppendInt(dst, int64(blocks), 10)
	if leaseSeconds != 0 {
		dst = append(dst, `,"lease_seconds":`...)
		dst = appendJSONFloat(dst, leaseSeconds)
	}
	return append(dst, '}', '\n')
}

// --- Binary frame -----------------------------------------------------

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendUvarint(dst []byte, u uint64) []byte {
	return binary.AppendUvarint(dst, u)
}

// frameReader pulls varints off a frame payload with saturating error
// state, so decode paths read linearly and check once.
type frameReader struct {
	data []byte
	i    int
	bad  bool
}

func (r *frameReader) uvarint() uint64 {
	u, n := binary.Uvarint(r.data[r.i:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.i += n
	return u
}

func (r *frameReader) svarint() int64 { return unzigzag(r.uvarint()) }

func (r *frameReader) done() bool { return !r.bad && r.i == len(r.data) }

// appendNextResponseFrame is the server-side response framing, built
// from the host's native types like the JSON fast path. status is one
// of the protocol's three.
func appendNextResponseFrame(dst []byte, status string, tasks []core.Task, blocks int, leaseSeconds float64) []byte {
	dst = append(dst, frameMagic0, frameMagic1, frameResp, statusCodes[status])
	dst = appendUvarint(dst, uint64(len(tasks)))
	for _, t := range tasks {
		dst = appendUvarint(dst, zigzag(int64(t)))
	}
	dst = appendUvarint(dst, zigzag(int64(blocks)))
	var lease [8]byte
	binary.LittleEndian.PutUint64(lease[:], math.Float64bits(leaseSeconds))
	return append(dst, lease[:]...)
}

// decodeNextRequestFrame parses a poll-request frame, appending the
// completed tasks to buf[:0]. Unlike the JSON fast path there is no
// fallback: a frame-typed body that does not parse is a hard protocol
// error.
func decodeNextRequestFrame(data []byte, buf []core.Task) (worker int64, completed []core.Task, err error) {
	completed = buf[:0]
	if len(data) < 3 || data[0] != frameMagic0 || data[1] != frameMagic1 {
		return 0, completed, fmt.Errorf("frame: bad magic")
	}
	if data[2] != frameReq {
		return 0, completed, fmt.Errorf("frame: message type %#02x is not a request", data[2])
	}
	r := frameReader{data: data, i: 3}
	worker = r.svarint()
	count := r.uvarint()
	// Each task costs at least one payload byte, so a count the buffer
	// cannot possibly satisfy is corruption — reject before allocating.
	if count > uint64(len(data)) {
		return 0, completed, fmt.Errorf("frame: task count %d exceeds frame size", count)
	}
	for k := uint64(0); k < count; k++ {
		completed = append(completed, core.Task(r.svarint()))
	}
	if !r.done() {
		if r.bad {
			return 0, completed[:0], fmt.Errorf("frame: truncated request")
		}
		return 0, completed[:0], fmt.Errorf("frame: %d trailing bytes", len(data)-r.i)
	}
	return worker, completed, nil
}
