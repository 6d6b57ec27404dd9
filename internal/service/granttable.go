package service

import (
	"math/bits"

	"hetsched/internal/core"
)

// grantTable is a Host's outstanding-assignment table: a linear-probe
// open-addressing hash map from task id to (worker, lease-expiry)
// specialized for the poll hot path, where every completed task costs
// one lookup-and-delete and every granted task one insert. Against the
// generic Go map it removes the interface hashing, the random
// iteration (scans here are deterministic given the same operation
// sequence, which the reclaim pass sorts anyway), and about half the
// per-operation cost; it allocates only on growth.
//
// Deletion uses backward-shift compaction rather than tombstones: the
// table churns one delete per completed task against one insert per
// granted task for the lifetime of a run, and tombstones would
// degenerate every probe chain at exactly that workload. A live run's
// table never shrinks: it peaks at its maximum in-flight batch volume
// and stays there, which is the steady-state-allocation-free contract
// the AllocsPerRun guards pin. Once the run answers done, the host
// drops the empty table for its zero value.
//
// Below gtSparseMax slots the table grows at load 1/4, not the usual
// 3/4: one table holds a whole run's grants, and every insert probes,
// and every delete shifts, to the end of its cluster. On
// BenchmarkHostNext's serial rows (tables of up to 4,096 slots),
// growing at 3/4 or 1/2 made a poll 10-20% slower than growing at 1/4;
// 1/8 was faster still, at twice the slots. From gtSparseMax slots on
// it grows at 3/4, which keeps the largest run's table (maxTasks
// grants) at 2^25 slots of 24 B, 768 MiB, rather than 1.5 GiB.
//
// Not safe for concurrent use; the Host's mutex serializes access.
type grantTable struct {
	slots []gtSlot
	mask  uint64
	shift uint
	n     int
	limit int // put grows the table once n reaches limit
}

// gtSlot is one table slot. state distinguishes an empty slot from a
// full one (task 0 is a legal task id); expiryNs is the lease deadline
// in UnixNano (0 when leases are disabled).
type gtSlot struct {
	task     int64
	expiryNs int64
	worker   int32
	state    uint8
}

const gtFull = 1

// gtMinSize keeps even tiny tables a few slots wide so the first
// grants never probe a degenerate table.
const gtMinSize = 8

// gtSparseMax is the slot count from which the table grows at load 3/4
// instead of 1/4; it is 16 times the largest table the benchmarks run.
const gtSparseMax = 1 << 16

func (g *grantTable) reset(size int) {
	g.slots = make([]gtSlot, size)
	g.mask = uint64(size - 1)
	g.shift = 64 - uint(bits.Len64(uint64(size-1)))
	g.n = 0
	g.limit = size / 4
	if size >= gtSparseMax {
		g.limit = size / 4 * 3
	}
}

// home is the preferred slot of task t: Fibonacci hashing spreads the
// structured task ids (dense ranges, bit-packed DAG coordinates) well
// enough that linear probing stays short at the loads put allows.
func (g *grantTable) home(t int64) uint64 {
	return (uint64(t) * 0x9E3779B97F4A7C15) >> g.shift
}

// takeOwned is the fused lookup-and-delete of the poll path: if t is
// present and owned by worker w it is removed and returned (took
// true); if present under another owner it is left in place (found
// true, took false) so the caller can diagnose without re-inserting;
// if absent both are false.
func (g *grantTable) takeOwned(t core.Task, w int32) (s gtSlot, found, took bool) {
	if g.n == 0 {
		return gtSlot{}, false, false
	}
	i := g.home(int64(t))
	for {
		sl := &g.slots[i]
		if sl.state != gtFull {
			return gtSlot{}, false, false
		}
		if sl.task == int64(t) {
			s = *sl
			if sl.worker != w {
				return s, true, false
			}
			g.removeAt(i)
			g.n--
			return s, true, true
		}
		i = (i + 1) & g.mask
	}
}

// put inserts or overwrites t's slot.
func (g *grantTable) put(t core.Task, worker int32, expiryNs int64) {
	if g.slots == nil {
		g.reset(gtMinSize)
	} else if g.n >= g.limit {
		g.grow()
	}
	i := g.home(int64(t))
	for {
		s := &g.slots[i]
		if s.state != gtFull {
			*s = gtSlot{task: int64(t), expiryNs: expiryNs, worker: worker, state: gtFull}
			g.n++
			return
		}
		if s.task == int64(t) {
			s.worker = worker
			s.expiryNs = expiryNs
			return
		}
		i = (i + 1) & g.mask
	}
}

// del removes t if present.
func (g *grantTable) del(t core.Task) bool {
	if g.n == 0 {
		return false
	}
	i := g.home(int64(t))
	for {
		s := &g.slots[i]
		if s.state != gtFull {
			return false
		}
		if s.task == int64(t) {
			g.removeAt(i)
			g.n--
			return true
		}
		i = (i + 1) & g.mask
	}
}

// removeAt empties slot i and backward-shifts the probe chain behind
// it: each following entry whose home position does not lie strictly
// inside (i, j] moves back into the hole, so every remaining entry
// stays reachable from its home by forward probing.
func (g *grantTable) removeAt(i uint64) {
	j := i
	for {
		j = (j + 1) & g.mask
		s := &g.slots[j]
		if s.state != gtFull {
			break
		}
		k := g.home(s.task)
		if ((j - k) & g.mask) >= ((j - i) & g.mask) {
			g.slots[i] = *s
			i = j
		}
	}
	g.slots[i] = gtSlot{}
}

// grow doubles the table and reinserts every resident entry.
func (g *grantTable) grow() {
	old := g.slots
	g.reset(len(old) * 2)
	for idx := range old {
		s := &old[idx]
		if s.state != gtFull {
			continue
		}
		i := g.home(s.task)
		for g.slots[i].state == gtFull {
			i = (i + 1) & g.mask
		}
		g.slots[i] = *s
		g.n++
	}
}

// forEach visits every resident entry. The order is a deterministic
// function of the operation history (unlike a Go map's), but callers
// that need a canonical order still sort: the history itself can
// depend on request interleaving. The table must not be mutated during
// the walk.
func (g *grantTable) forEach(f func(t core.Task, worker int32, expiryNs int64)) {
	if g.n == 0 {
		return
	}
	for idx := range g.slots {
		s := &g.slots[idx]
		if s.state == gtFull {
			f(core.Task(s.task), s.worker, s.expiryNs)
		}
	}
}
