package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"hetsched/internal/core"
)

// Transfer stream format: a self-contained encoding of one run's full
// durable state, built to be shipped between federated hosts during a
// live migration or scavenged from a dead host's journal directory.
//
//	transfer := magic "HTX1"
//	            flag(u8)                 1 = snapshot present, 0 = absent
//	            [snapLen(u32) snapshot]  when flag == 1 (HSN3 encoding, own CRC)
//	            frame*                   journal frames: len(u32) crc(u32) mutation
//
// The frames carry the run's journal tail: every mutation with a
// per-run sequence number above the snapshot's watermark, contiguous
// and in order. A snapshot-less stream (flag 0) starts at the
// beginning of the run's life: its first frame must be the MutCreate
// record with sequence 1. Either way the stream alone reconstructs the
// run — no side channel, no access to the source's journal directory.
//
// Unlike the journal reader (DecodeFrames), which treats a torn tail
// as the expected residue of a crash, a transfer stream has no excuse
// for damage: DecodeTransfer is total on arbitrary bytes and rejects
// truncation, corruption, trailing bytes, a snapshot in the retired
// op-log format (ErrOpLogSnapshot) and any structural inconsistency
// with an error. The encoding is canonical, so
// AppendTransfer(nil, DecodeTransfer(b)) == b for any accepted b
// (FuzzTransferDecode pins both properties) — except that a snapshot
// an older host wrote as HSN2 is re-encoded as HSN3.
var transferMagic = [4]byte{'H', 'T', 'X', '1'}

// AppendTransfer appends the transfer encoding of (snap, tail) to dst.
// snap may be nil for a from-the-beginning stream, in which case tail
// must start with the run's MutCreate record.
func AppendTransfer(dst []byte, snap *RunSnapshot, tail []core.Mutation) []byte {
	dst = append(dst, transferMagic[:]...)
	if snap != nil {
		dst = append(dst, 1)
		at := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		dst = AppendSnapshot(dst, snap)
		binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	} else {
		dst = append(dst, 0)
	}
	for _, m := range tail {
		at := len(dst)
		dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
		dst = core.AppendMutation(dst, m.Op, m.Run, m.Seq, m.TimeNs, m.Worker, m.Tasks, m.Payload)
		body := dst[at+frameHeader:]
		binary.LittleEndian.PutUint32(dst[at:], uint32(len(body)))
		binary.LittleEndian.PutUint32(dst[at+4:], crc32.Checksum(body, crcTable))
	}
	return dst
}

// DecodeTransfer parses a transfer stream. It is total on arbitrary
// bytes: any damage — bad magic, a non-canonical flag, a truncated or
// corrupt snapshot, a torn frame, a CRC mismatch, trailing bytes, an
// id mismatch between snapshot and tail, or a sequence gap — fails
// with an error, never a panic. On success the tail mutations are
// contiguous (watermark+1, watermark+2, …) and all belong to the
// stream's single run.
func DecodeTransfer(b []byte) (*RunSnapshot, []core.Mutation, error) {
	if len(b) < len(transferMagic)+1 || string(b[:4]) != string(transferMagic[:]) {
		return nil, nil, fmt.Errorf("durable: not a transfer stream")
	}
	i := len(transferMagic)
	var snap *RunSnapshot
	var id string
	var watermark uint64
	switch b[i] {
	case 0:
		i++
	case 1:
		i++
		if len(b)-i < 4 {
			return nil, nil, fmt.Errorf("durable: transfer snapshot length truncated")
		}
		n := int(binary.LittleEndian.Uint32(b[i:]))
		i += 4
		if n > len(b)-i {
			return nil, nil, fmt.Errorf("durable: transfer snapshot truncated")
		}
		s, err := DecodeSnapshot(b[i : i+n])
		if err != nil {
			return nil, nil, err
		}
		i += n
		snap, id, watermark = s, s.ID, s.Mutations
	default:
		return nil, nil, fmt.Errorf("durable: transfer has non-canonical snapshot flag %d", b[i])
	}
	var tail []core.Mutation
	for i < len(b) {
		if len(b)-i < frameHeader {
			return nil, nil, fmt.Errorf("durable: transfer frame header truncated")
		}
		n := int(binary.LittleEndian.Uint32(b[i:]))
		if n <= 0 || n > maxFrame || len(b)-i-frameHeader < n {
			return nil, nil, fmt.Errorf("durable: transfer frame truncated")
		}
		want := binary.LittleEndian.Uint32(b[i+4:])
		body := b[i+frameHeader : i+frameHeader+n]
		if crc32.Checksum(body, crcTable) != want {
			return nil, nil, fmt.Errorf("durable: transfer frame CRC mismatch at offset %d", i)
		}
		m, err := core.DecodeMutation(body)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: transfer frame at offset %d: %w", i, err)
		}
		i += frameHeader + n
		if snap == nil && len(tail) == 0 {
			if m.Op != core.MutCreate || m.Seq != 1 {
				return nil, nil, fmt.Errorf("durable: snapshot-less transfer must start with create seq 1, got op %d seq %d", m.Op, m.Seq)
			}
			id = m.Run
		}
		if m.Run != id {
			return nil, nil, fmt.Errorf("durable: transfer mixes runs %q and %q", id, m.Run)
		}
		if m.Seq != watermark+uint64(len(tail))+1 {
			return nil, nil, fmt.Errorf("durable: transfer sequence gap: want %d, got %d", watermark+uint64(len(tail))+1, m.Seq)
		}
		tail = append(tail, m)
	}
	if snap == nil && len(tail) == 0 {
		return nil, nil, fmt.Errorf("durable: empty transfer stream")
	}
	return snap, tail, nil
}

// TransferRuns lists the run ids present in a journal directory —
// every run with a snapshot or a MutCreate record and no MutSwept
// after it. It reads the directory cold (no open Log needed), so a
// surviving host can enumerate what a dead peer's journal still owes.
func TransferRuns(dir string) ([]string, error) {
	gens, snaps, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	present := make(map[string]bool)
	for _, sf := range snaps {
		present[sf.id] = true
	}
	for _, g := range gens {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(g)))
		if err != nil {
			return nil, fmt.Errorf("durable: %w", err)
		}
		if _, err := DecodeFrames(data, func(m core.Mutation) error {
			switch m.Op {
			case core.MutCreate:
				present[m.Run] = true
			case core.MutSwept:
				delete(present, m.Run)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	ids := make([]string, 0, len(present))
	for id := range present {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// ExtractTransfer scavenges one run's transfer stream from a journal
// directory without an open Log: the highest-watermark valid snapshot
// (if any) plus every journal record above it, across all generations
// in order. A snapshot of the run in the retired op-log format fails
// the extraction, as it fails recovery. This is the death path — the new ring owner of a crashed
// host's run rebuilds the stream the dead process can no longer serve.
// Duplicate records (the residue of a damaged-generation retry) are
// skipped at the sequence watermark exactly as recovery skips them; a
// genuine gap in acknowledged records is a hard error. A MutSwept
// record means the run already left this directory (swept or migrated
// away) and extraction fails.
func ExtractTransfer(dir, id string) ([]byte, error) {
	gens, snapFiles, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	var snap *RunSnapshot
	for _, sf := range snapFiles {
		if sf.id != id {
			continue
		}
		s, err := readSnapshot(dir, sf)
		if err != nil {
			return nil, err
		}
		if s != nil && (snap == nil || snap.Mutations < s.Mutations) {
			snap = s
		}
	}
	var watermark uint64
	if snap != nil {
		watermark = snap.Mutations
	}
	var tail []core.Mutation
	seq := watermark
	created := snap != nil
	swept := false
	for _, g := range gens {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(g)))
		if err != nil {
			return nil, fmt.Errorf("durable: %w", err)
		}
		if _, err := DecodeFrames(data, func(m core.Mutation) error {
			if m.Run != id || swept {
				return nil
			}
			if m.Op == core.MutSwept {
				swept = true
				return nil
			}
			if m.Op == core.MutCreate {
				created = true
			}
			if m.Seq <= seq {
				return nil // duplicate from a damaged-generation retry
			}
			if m.Seq != seq+1 {
				return fmt.Errorf("durable: journal gap for run %s: have %d, next record is %d", id, seq, m.Seq)
			}
			seq = m.Seq
			tail = append(tail, m)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if swept {
		return nil, fmt.Errorf("durable: run %s was swept or migrated away from %s", id, dir)
	}
	if !created {
		return nil, fmt.Errorf("durable: run %s not found in %s", id, dir)
	}
	return AppendTransfer(nil, snap, tail), nil
}
