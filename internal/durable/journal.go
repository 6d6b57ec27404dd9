// Package durable persists the mutation stream of internal/service's
// masters: a length-prefixed, CRC-framed write-ahead journal of
// core.Mutation records plus per-run snapshots that truncate it.
//
// The durability model is process-crash (SIGKILL): every accepted poll
// is framed into a group-commit buffer under the host mutex and
// written out with one write(2) per poll batch before the response is
// sent, so the kernel page cache — which survives the death of the
// process — always holds every acknowledged mutation. fsync is
// amortized: the journal syncs every SyncEvery bytes (and on rotation
// and close), bounding what a *machine* crash can lose without putting
// a disk flush on every poll.
//
// The on-disk layout of a journal directory is
//
//	journal-<gen>.log   framed mutation records, ascending generations
//	snap-<id>-<seq>.snap  one run's state after its first <seq> mutations
//
// Each checkpoint rotates to a fresh generation, snapshots every live
// run, then deletes the older generations and superseded snapshots.
// Snapshots are versioned and written atomically (tmp + fsync +
// rename), so a crash mid-checkpoint leaves the previous snapshot and
// a longer journal suffix. ReadRuns is the one way back: per run, the
// highest valid snapshot and every record above its watermark. Torn or
// corrupt journal tails are detected by CRC: the reader ends the
// damaged generation at its last valid frame and continues with the
// next generation (acknowledged records appended after an earlier
// crash live there); appends after recovery go to a fresh generation,
// never into a damaged file.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hetsched/internal/core"
)

// Journal frame format:
//
//	frame := len(u32) crc(u32) payload
//
// len is the payload length, crc is CRC-32C (Castagnoli) over the
// payload. The payload is one core.Mutation wire record.
const frameHeader = 8

// maxFrame bounds the payload length a reader will accept; anything
// larger is treated as tail damage.
const maxFrame = 1 << 26

// DefaultSyncEvery is the fsync amortization granularity: the journal
// fsyncs after this many bytes of committed frames. The window bounds
// what a machine crash (not a process kill — write(2) covers that per
// poll) can lose; 4MB of ~55-byte poll frames keeps the amortized
// fsync tax under ~50ns/poll even on filesystems where a sync costs
// milliseconds.
const DefaultSyncEvery = 1 << 22

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Log is one journal directory opened for appending. Appends are
// buffered (group commit); Commit writes the buffered frames with one
// write(2) and Sync additionally forces them to disk. All methods are
// safe for concurrent use.
type Log struct {
	dir string

	mu        sync.Mutex
	f         *os.File
	gen       uint64
	buf       []byte
	sinceSync int
	syncEvery int
	closed    bool
	// damaged is set when a write(2) failed after landing some bytes:
	// the generation now ends in a torn frame, and appending after it
	// would hide every later frame from replay (which stops a
	// generation at the first damage). The next commit seals the
	// damaged generation and retries into a fresh one.
	damaged bool
}

// Open opens (creating if needed) the journal directory and starts a
// fresh generation for appends. Records from earlier generations are
// readable via ReadRuns until a Checkpoint prunes them; Open itself
// never modifies existing files, so a failed recovery can always be
// retried against intact data.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	gens, _, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(gens); n > 0 {
		next = gens[n-1] + 1
	}
	f, err := os.OpenFile(filepath.Join(dir, segmentName(next)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	return &Log{
		dir:       dir,
		f:         f,
		gen:       next,
		buf:       make([]byte, 0, 1<<16),
		syncEvery: DefaultSyncEvery,
	}, nil
}

// Dir returns the journal directory.
func (l *Log) Dir() string { return l.dir }

// AppendPoll buffers one accepted-poll mutation. Allocation-free once
// the commit buffer has grown to its working size.
func (l *Log) AppendPoll(run string, seq uint64, timeNs int64, worker int32, completed []core.Task) {
	l.mu.Lock()
	l.appendLocked(core.MutPoll, run, seq, timeNs, worker, completed, nil)
	l.mu.Unlock()
}

// AppendReclaim buffers one lease-reclamation mutation.
func (l *Log) AppendReclaim(run string, seq uint64, timeNs int64) {
	l.mu.Lock()
	l.appendLocked(core.MutReclaim, run, seq, timeNs, -1, nil, nil)
	l.mu.Unlock()
}

// AppendCreate buffers a run-creation mutation carrying the canonical
// resolved creation record.
func (l *Log) AppendCreate(run string, seq uint64, timeNs int64, payload []byte) {
	l.mu.Lock()
	l.appendLocked(core.MutCreate, run, seq, timeNs, -1, nil, payload)
	l.mu.Unlock()
}

// AppendExpire buffers a run-expiry mutation.
func (l *Log) AppendExpire(run string, seq uint64, timeNs int64) {
	l.mu.Lock()
	l.appendLocked(core.MutExpire, run, seq, timeNs, -1, nil, nil)
	l.mu.Unlock()
}

// AppendSwept buffers a registry-sweep mutation.
func (l *Log) AppendSwept(run string, seq uint64, timeNs int64) {
	l.mu.Lock()
	l.appendLocked(core.MutSwept, run, seq, timeNs, -1, nil, nil)
	l.mu.Unlock()
}

func (l *Log) appendLocked(op core.MutationOp, run string, seq uint64, timeNs int64, worker int32, tasks []core.Task, payload []byte) {
	at := len(l.buf)
	l.buf = append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	l.buf = core.AppendMutation(l.buf, op, run, seq, timeNs, worker, tasks, payload)
	body := l.buf[at+frameHeader:]
	binary.LittleEndian.PutUint32(l.buf[at:], uint32(len(body)))
	binary.LittleEndian.PutUint32(l.buf[at+4:], crc32.Checksum(body, crcTable))
}

// Commit writes every buffered frame with one write(2), fsyncing when
// the amortization budget is used up. A poll is acknowledged only
// after its Commit returns, so acknowledged mutations survive a
// process kill.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked()
}

func (l *Log) commitLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if l.closed {
		return fmt.Errorf("durable: journal closed")
	}
	if l.damaged {
		// The previous commit's write(2) failed partway, so the current
		// generation ends in a torn frame. Rewriting the buffer after
		// those partial bytes would corrupt the file mid-generation
		// (replay stops a generation at the first damage, dropping every
		// frame after it), so seal the damaged generation and retry the
		// still-buffered frames in a fresh one — replay skips a torn
		// tail and continues with the next generation.
		if err := l.reopenLocked(); err != nil {
			return err
		}
	}
	n, err := l.f.Write(l.buf)
	if err != nil {
		if n > 0 {
			l.damaged = true
		}
		return fmt.Errorf("durable: %w", err)
	}
	l.buf = l.buf[:0]
	l.sinceSync += n
	if l.sinceSync >= l.syncEvery {
		l.sinceSync = 0
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
	}
	return nil
}

// Sync commits and forces the current generation to disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.commitLocked(); err != nil {
		return err
	}
	l.sinceSync = 0
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// Close syncs and closes the journal. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.commitLocked()
	if serr := l.f.Sync(); err == nil && serr != nil {
		err = fmt.Errorf("durable: %w", serr)
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("durable: %w", cerr)
	}
	l.closed = true
	return err
}

// Rotate syncs and seals the current generation and opens the next
// one; it returns the sealed generation. Checkpointing snapshots every
// live run after rotating, so the sealed generations are fully covered
// by the snapshots' watermarks and can be pruned.
func (l *Log) Rotate() (sealed uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("durable: journal closed")
	}
	if err := l.commitLocked(); err != nil {
		return 0, err
	}
	l.sinceSync = 0
	if err := l.f.Sync(); err != nil {
		return 0, fmt.Errorf("durable: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return 0, fmt.Errorf("durable: %w", err)
	}
	sealed = l.gen
	l.gen++
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(l.gen)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		l.closed = true
		return 0, fmt.Errorf("durable: %w", err)
	}
	l.f = f
	l.damaged = false
	return sealed, nil
}

// reopenLocked abandons the current (damaged) generation and opens the
// next one for appends. The damaged file is left on disk with its torn
// tail; its valid prefix still replays, and the next checkpoint prunes
// it like any other sealed generation.
func (l *Log) reopenLocked() error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(l.gen+1)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	l.f.Close() // best effort: the generation is already damaged
	l.f = f
	l.gen++
	l.sinceSync = 0
	l.damaged = false
	return nil
}

// Prune deletes journal generations at or below throughGen and every
// snapshot that is not the keeper for its run (keep maps run id to the
// watermark of the snapshot to retain). Leftover tmp files from
// interrupted snapshot writes are removed too.
func (l *Log) Prune(throughGen uint64, keep map[string]uint64) error {
	gens, snaps, err := scanDir(l.dir)
	if err != nil {
		return err
	}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("durable: %w", err)
		}
	}
	for _, g := range gens {
		if g <= throughGen {
			note(os.Remove(filepath.Join(l.dir, segmentName(g))))
		}
	}
	for _, sf := range snaps {
		if want, ok := keep[sf.id]; !ok || sf.seq != want {
			note(os.Remove(filepath.Join(l.dir, sf.name)))
		}
	}
	ents, err := os.ReadDir(l.dir)
	note(err)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			note(os.Remove(filepath.Join(l.dir, e.Name())))
		}
	}
	return firstErr
}

// StoredRun is one live run as a journal directory holds it, which is
// what a transfer stream carries: the best valid snapshot (nil when
// none survives) and the contiguous tail of records above its
// watermark, opening with the run's MutCreate when there is no
// snapshot. Err, when set, is why the run cannot be read back, and
// Snap and Tail are then nil.
type StoredRun struct {
	ID   string
	Snap *RunSnapshot
	Tail []core.Mutation
	Err  error
}

// ReadRuns reads a journal directory back in one pass and returns
// every live run in it, in id order. It owns every per-run rule:
//
//   - A run's highest-watermark snapshot that decodes wins; a damaged
//     one (the residue of a crash mid-checkpoint) is skipped in favour
//     of an older one. A snapshot in the retired HSN1 format, or an
//     HSN2 one with an inexact trace time, is the run's error, naming
//     the file.
//   - Generations are read in order, and a torn or corrupt frame ends
//     only its own generation: a process that crashed on a torn gen N
//     and then acknowledged records into gen N+1 keeps them.
//   - A record at or below the run's watermark (its snapshot's, then
//     its last tail record's) is skipped, MutSwept included: it is
//     inside the snapshot or a damaged-generation retry wrote it twice.
//   - The record after the watermark joins the tail; any later one is
//     a gap, the run's error.
//   - MutSwept drops the run (swept, or migrated away), and a later
//     MutCreate with sequence 1 starts it again.
//   - Records of a run with neither a snapshot nor a create are
//     ignored: the run was swept and a checkpoint pruned its state.
//
// A directory or generation it cannot read, or a CRC-valid frame that
// does not decode, fails the whole call.
func ReadRuns(dir string) ([]StoredRun, error) {
	gens, snaps, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	runs := make(map[string]*StoredRun)
	for _, sf := range snaps {
		s, err := readSnapshot(dir, sf)
		switch r := runs[sf.id]; {
		case err != nil:
			runs[sf.id] = &StoredRun{ID: sf.id, Err: err}
		case s == nil || r != nil && (r.Err != nil || r.Snap.Mutations >= s.Mutations):
			// Damaged, or no better than what the run already has.
		default:
			runs[sf.id] = &StoredRun{ID: sf.id, Snap: s}
		}
	}
	for _, g := range gens {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(g)))
		if err != nil {
			return nil, fmt.Errorf("durable: %w", err)
		}
		if _, err := DecodeFrames(data, func(m core.Mutation) error {
			r := runs[m.Run]
			if r == nil {
				r = &StoredRun{ID: m.Run}
				runs[m.Run] = r
			}
			r.add(m)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	out := make([]StoredRun, 0, len(runs))
	for _, r := range runs {
		if r.Err != nil || r.live() {
			out = append(out, *r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

func (r *StoredRun) live() bool { return r.Snap != nil || len(r.Tail) > 0 }

// add applies ReadRuns's sequence rules to one journal record of r.
func (r *StoredRun) add(m core.Mutation) {
	var seq uint64
	if n := len(r.Tail); n > 0 {
		seq = r.Tail[n-1].Seq
	} else if r.Snap != nil {
		seq = r.Snap.Mutations
	}
	switch {
	case r.Err != nil:
	case !r.live():
		if m.Op == core.MutCreate && m.Seq == 1 {
			r.Tail = append(r.Tail, m)
		}
	case m.Seq <= seq:
	case m.Seq != seq+1:
		*r = StoredRun{ID: r.ID, Err: fmt.Errorf("durable: journal gap for run %s: have %d, next record is %d", r.ID, seq, m.Seq)}
	case m.Op == core.MutSwept:
		*r = StoredRun{ID: r.ID}
	default:
		r.Tail = append(r.Tail, m)
	}
}

// DecodeFrames iterates the journal frames in b, invoking fn for each
// decoded mutation, and returns how many bytes of b formed valid
// frames. It is total on arbitrary bytes: damage — a truncated header,
// an insane length, a CRC mismatch — terminates the iteration at the
// last valid frame without error and without panicking. A frame whose
// CRC matches but whose payload does not decode is a writer bug, not
// tail damage, and is returned as an error.
func DecodeFrames(b []byte, fn func(core.Mutation) error) (consumed int, err error) {
	for len(b)-consumed >= frameHeader {
		n := int(binary.LittleEndian.Uint32(b[consumed:]))
		if n <= 0 || n > maxFrame || len(b)-consumed-frameHeader < n {
			return consumed, nil
		}
		want := binary.LittleEndian.Uint32(b[consumed+4:])
		body := b[consumed+frameHeader : consumed+frameHeader+n]
		if crc32.Checksum(body, crcTable) != want {
			return consumed, nil
		}
		m, err := core.DecodeMutation(body)
		if err != nil {
			return consumed, fmt.Errorf("durable: frame at offset %d: %w", consumed, err)
		}
		consumed += frameHeader + n
		if fn != nil {
			if err := fn(m); err != nil {
				return consumed, err
			}
		}
	}
	return consumed, nil
}

// --- Directory layout -------------------------------------------------

const (
	segPrefix  = "journal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpPrefix  = ".tmp-"
)

func segmentName(gen uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, gen, segSuffix)
}

func snapshotName(id string, seq uint64) string {
	return fmt.Sprintf("%s%s-%016x%s", snapPrefix, id, seq, snapSuffix)
}

type snapFile struct {
	name string
	id   string
	seq  uint64
}

// scanDir lists the journal generations (ascending) and snapshot files
// in dir, ignoring anything it does not recognize.
func scanDir(dir string) (gens []uint64, snaps []snapFile, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			g, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64)
			if err == nil {
				gens = append(gens, g)
			}
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			base := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
			dash := strings.LastIndexByte(base, '-')
			if dash <= 0 {
				continue
			}
			seq, err := strconv.ParseUint(base[dash+1:], 16, 64)
			if err != nil {
				continue
			}
			snaps = append(snaps, snapFile{name: name, id: base[:dash], seq: seq})
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, snaps, nil
}
