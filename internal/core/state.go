package core

import (
	"encoding/binary"
	"fmt"
)

// Snapshotter is the capability of a driver to write down its
// allocation state and to take it back, which is what a durable host
// persists instead of the history that produced it.
//
// RestoreState runs on a freshly built driver of the same kind, shape
// and seed as the one whose AppendState wrote src; from then on the two
// answer every call alike — the same grants, blocks, draws and
// Remaining. It checks every length, index and invariant it reads
// against the driver's shape, never panics, and never sizes an
// allocation by a length it read; after an error the driver must be
// discarded. The encoding is canonical: AppendState right after a
// successful RestoreState(src) writes src again.
type Snapshotter interface {
	// AppendState appends the driver's state to dst.
	AppendState(dst []byte) []byte
	// RestoreState replaces the state of a freshly built driver with
	// the one src holds.
	RestoreState(src []byte) error
}

// The one decoding rule. Every decoder of bytes from outside the
// process — a driver's state, a snapshot, a journal record, a poll
// frame, a trace — reads them through a StateReader, and so accepts
// only what its encoder writes: a varint only in its shortest form
// (binary.AppendUvarint's, or binary.AppendVarint's zigzag), a flag
// byte only 0 or 1, a length only up to the bytes that remain, and no
// byte past the end. Fixed-width words are little-endian. In a driver's
// state, counts, indices and task ids are varints, bitsets and rng
// positions are 8-byte words, and lengths the reader can derive from
// the shape or from earlier fields are not written.

// StateReader decodes one encoded value. Every read is total: the first
// malformed field records an error and every later read returns zero,
// so a decoder reads straight through and checks Done once at the end.
type StateReader struct {
	b   []byte
	err error
}

// NewStateReader returns a reader over src.
func NewStateReader(src []byte) *StateReader { return &StateReader{b: src} }

// Failf records a decoding error, unless one is recorded already.
func (r *StateReader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Fail records err, unless an error is recorded already.
func (r *StateReader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Ok reports whether no error has been recorded.
func (r *StateReader) Ok() bool { return r.err == nil }

// Done returns the recorded error, or an error when bytes remain: an
// encoding is consumed exactly.
func (r *StateReader) Done() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("core: %d trailing bytes", len(r.b))
	}
	return r.err
}

// Uvarint reads one minimal unsigned varint. It is the one place that
// decides what a varint is.
func (r *StateReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.Failf("core: truncated or non-minimal varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads one minimal zigzag varint.
func (r *StateReader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a varint that must not exceed max, a bound its caller takes
// from the shape; what names it in the error.
func (r *StateReader) Int(max int, what string) int {
	v := r.Uvarint()
	if v > uint64(max) {
		r.Failf("core: %s %d, above %d", what, v, max)
		return 0
	}
	return int(v)
}

// U16 reads one 2-byte little-endian word.
func (r *StateReader) U16() uint16 {
	if b := r.Bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads one 4-byte little-endian word.
func (r *StateReader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Word reads one 8-byte little-endian word.
func (r *StateReader) Word() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Len reads a 4-byte little-endian length, which must not exceed the
// bytes that remain.
func (r *StateReader) Len() int {
	n := r.U32()
	if uint64(n) > uint64(len(r.b)) {
		r.Failf("core: length %d, above the %d bytes that remain", n, len(r.b))
		return 0
	}
	return int(n)
}

// Bool reads one flag byte.
func (r *StateReader) Bool() bool {
	switch b := r.Bytes(1); {
	case b == nil:
	case b[0] == 1:
		return true
	case b[0] != 0:
		r.Failf("core: flag byte %d", b[0])
	}
	return false
}

// Bytes reads the next n bytes; they alias the reader's input.
func (r *StateReader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.Failf("core: truncated")
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

// Rest returns everything not read yet and leaves the reader at its
// end.
func (r *StateReader) Rest() []byte {
	b := r.b
	r.b = nil
	return b
}

// Bools reads len(dst) flags packed eight to a byte, low bit first, as
// AppendBools writes them.
func (r *StateReader) Bools(dst []bool) {
	b := r.Bytes((len(dst) + 7) / 8)
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = b[i/8]>>(i%8)&1 == 1
	}
	if tail := len(dst) % 8; tail != 0 && b[len(b)-1]>>tail != 0 {
		r.Failf("core: flag padding bits set")
	}
}

// AppendBool appends one flag byte.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendBools appends flags packed eight to a byte, low bit first.
func AppendBools(dst []byte, vs []bool) []byte {
	for i := 0; i < len(vs); i += 8 {
		var b byte
		for j, v := range vs[i:min(i+8, len(vs))] {
			if v {
				b |= 1 << j
			}
		}
		dst = append(dst, b)
	}
	return dst
}
