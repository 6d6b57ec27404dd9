package dag

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"strings"

	"hetsched/internal/core"
	"hetsched/internal/rng"
)

// AppendState appends the coordinator's state to dst: the rng, the
// completed count, the ready set in order (each task by its EncodeTask
// id — the order is part of every schedule), the in-flight words, the
// p missing sets' words, then the kernel's progress. The candidates
// beside the ready tasks are not written: they are the kernel's answers
// about each task, asked again on restore.
func (c *Coordinator) AppendState(dst []byte) []byte {
	dst = c.r.AppendState(dst)
	dst = binary.AppendUvarint(dst, uint64(c.done))
	dst = binary.AppendUvarint(dst, uint64(len(c.ready)))
	for _, t := range c.ready {
		dst = binary.AppendUvarint(dst, uint64(EncodeTask(t, c.n)))
	}
	for _, w := range c.inFlight {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	// missing is written worker-major, a tile set per worker.
	off := len(dst)
	dst = append(dst, make([]byte, 8*c.p*c.words)...)
	for id := 0; id < int(c.spare); id++ {
		for wi, word := range c.missing[id*c.pw : (id+1)*c.pw] {
			for ; word != 0; word &= word - 1 {
				w := 64*wi + bits.TrailingZeros64(word)
				dst[off+8*(w*c.words+id>>6)+id&63>>3] |= 1 << (id & 7)
			}
		}
	}
	return c.g.AppendState(dst)
}

// RestoreState replaces the state of a freshly built coordinator with
// the one AppendState wrote in src. The ready tasks are distinct ids of
// the n-tile task space, each one the restored progress has Released,
// checked before their tiles are asked for, and no set has a bit at or
// past the spare tile. It never panics; after an error the coordinator
// must be discarded.
func (c *Coordinator) RestoreState(src []byte) error {
	r := core.NewStateReader(src)
	if err := c.r.RestoreState(r.Bytes(rng.StateBytes)); err != nil {
		r.Fail(err)
	}
	total, n := c.total, c.n
	c.done = r.Int(total, "completed count")
	nready := r.Int(total-c.done, "ready task count")
	var ids []uint64
	c.ready = c.ready[:0]
	for i := 0; i < nready && r.Ok(); i++ {
		id := r.Uvarint()
		t, ok := decodeID(id, n)
		if r.Ok() && !ok {
			r.Failf("dag: ready task %d is outside the %d-tile task space", id, n)
		}
		ids = append(ids, id)
		c.ready = append(c.ready, t)
	}
	slices.Sort(ids)
	if r.Ok() && len(slices.Compact(ids)) != len(c.ready) {
		r.Failf("dag: a task is ready twice")
	}
	c.restoreWords(r, c.inFlight, "in-flight")
	clear(c.missing)
	set := make([]uint64, c.words)
	for w := 0; w < c.p && r.Ok(); w++ {
		c.restoreWords(r, set, "missing")
		for i, word := range set {
			for ; word != 0 && r.Ok(); word &= word - 1 {
				id := 64*i + bits.TrailingZeros64(word)
				c.missing[id*c.pw+w>>6] |= 1 << (w & 63)
			}
		}
	}
	if r.Ok() {
		if err := c.g.RestoreState(r.Rest()); err != nil {
			r.Fail(err)
		}
	}
	for _, t := range c.ready {
		if r.Ok() && !c.g.Released(t) {
			r.Failf("%s: %s is not a released task", strings.ToLower(c.k.Name), c.k.Format(t))
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	c.cand = c.cand[:0]
	c.ix = nil // rebuilt by the next pick that wants it
	c.describeReady()
	return nil
}

// restoreWords reads one tile set and checks that no bit at or past the
// spare tile is set.
func (c *Coordinator) restoreWords(r *core.StateReader, set []uint64, what string) {
	for i := range set {
		set[i] = r.Word()
	}
	if set[len(set)-1]>>(c.spare&63) != 0 {
		r.Failf("dag: %s set has a tile past %d", what, c.spare)
	}
}

// decodeID is DecodeTask for an id read from a state, reporting whether
// the id is one EncodeTask writes for an n-tile instance.
func decodeID(id uint64, n int) (Task, bool) {
	n64 := uint64(n)
	k, id := id%n64, id/n64
	j, id := id%n64, id/n64
	i, kind := id%n64, id/n64
	if kind > 255 {
		return Task{}, false
	}
	return Task{Kind: Kind(kind), I: int(i), J: int(j), K: int(k)}, true
}

// AppendState implements core.Snapshotter: the coordinator's state.
func (d *Driver) AppendState(dst []byte) []byte { return d.coord.AppendState(dst) }

// RestoreState implements core.Snapshotter. The driver's completed
// count is the coordinator's.
func (d *Driver) RestoreState(src []byte) error {
	if err := d.coord.RestoreState(src); err != nil {
		return err
	}
	d.completed = d.coord.done
	return nil
}
