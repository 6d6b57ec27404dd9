package dag

import (
	"fmt"

	"hetsched/internal/rng"
)

// Coordinator is the kernel-agnostic master-side state of a DAG run:
// the ready set, one write-lock bit per tile, one bit per worker × tile
// saying what would have to be shipped, and the ready-task selection
// policy. It is driven either by the virtual-time engine
// (sim.RunDriver via Driver), by the real concurrent runtime
// (internal/exec) or by the service host. All methods must be called
// from a single goroutine.
//
// Communication model: assigning a task to a worker ships one block per
// input tile whose current contents the worker does not hold.
// Completing a task rewrites its output tiles, so every copy but the
// writer's is stale and is shipped again — the dependency analogue of
// the data-reuse accounting in the paper's flat kernels. "Does w hold
// the current contents of this tile" is the only question the
// accounting asks, so one bit answers it: missing is all ones at the
// start, a ship clears w's bit, a completion sets the tile's bit for
// every worker and clears the writer's. A tile with a writing task in
// flight cannot be written by another task (per-tile write
// serialization).
type Coordinator struct {
	k      Kernel
	policy Policy
	r      *rng.PCG

	// ready[i] is described by cand[i]; the two are appended to and
	// swap-removed together. The order is part of every schedule: ties
	// are broken by reservoir draws in scan order.
	ready []Task
	cand  []candidate

	// Bitsets over tile ids plus one spare last bit, index k.Tiles(),
	// that is never set: the unused entries of a candidate point at it.
	words    int      // words per set
	spare    uint32   // k.Tiles()
	inFlight []uint64 // a writing task is currently assigned
	missing  []uint64 // p sets, worker-major: w lacks the tile's current contents

	buf  []int
	done int
}

// The most tiles a task may read and write (see the Kernel contract).
const (
	maxInputs  = 3
	maxOutputs = 2
)

// candidate is what a scan needs of a ready task, asked of the kernel
// once, when the task enters the ready set.
type candidate struct {
	in    [maxInputs]uint32
	out   [maxOutputs]uint32
	depth int
}

// The scan reads raw words, not internal/bitset: Test there checks its
// index and returns a bool, which cost a LocalityReady simulation 5–10%
// when tried; here every id was checked when its task entered the
// ready set, and a bit that is a number adds into a cost as it is.
func bit(set []uint64, i uint32) uint64 { return set[i>>6] >> (i & 63) & 1 }
func setBit(set []uint64, i uint32)     { set[i>>6] |= 1 << (i & 63) }
func clearBit(set []uint64, i uint32)   { set[i>>6] &^= 1 << (i & 63) }

// NewCoordinator creates a coordinator for kernel k on p workers.
func NewCoordinator(k Kernel, p int, policy Policy, r *rng.PCG) *Coordinator {
	if k == nil {
		panic("dag: nil kernel")
	}
	if k.N() <= 0 || p <= 0 {
		panic("dag: invalid coordinator shape")
	}
	if r == nil {
		panic("dag: nil rng")
	}
	if policy != RandomReady && policy != LocalityReady && policy != CriticalPathReady {
		panic("dag: unknown policy")
	}
	tiles := k.Tiles()
	words := tiles/64 + 1
	c := &Coordinator{
		k:        k,
		policy:   policy,
		r:        r,
		words:    words,
		spare:    uint32(tiles),
		inFlight: make([]uint64, words),
		missing:  make([]uint64, p*words),
	}
	for i := range c.missing {
		c.missing[i] = ^uint64(0)
		if i%words == words-1 {
			c.missing[i] = 1<<(c.spare&63) - 1 // the bits below the spare
		}
	}
	c.ready = c.k.InitialReady(c.ready)
	c.describeReady()
	return c
}

// describeReady fills cand for the tasks appended to ready since the
// last call, and is where a kernel that breaks the Kernel contract is
// caught: by name, before the task can be scanned.
func (c *Coordinator) describeReady() {
	for _, t := range c.ready[len(c.cand):] {
		cd := candidate{
			in:    [maxInputs]uint32{c.spare, c.spare, c.spare},
			out:   [maxOutputs]uint32{c.spare, c.spare},
			depth: c.k.Depth(t),
		}
		c.buf = c.k.InputTiles(t, c.buf[:0])
		c.copyIDs(cd.in[:], t, "input")
		c.buf = c.k.OutputTiles(t, c.buf[:0])
		c.copyIDs(cd.out[:], t, "output")
		c.cand = append(c.cand, cd)
	}
}

func (c *Coordinator) copyIDs(dst []uint32, t Task, what string) {
	if len(c.buf) > len(dst) {
		panic(fmt.Sprintf("dag: %s task %+v has %d %s tiles, the coordinator holds %d", c.k.Name(), t, len(c.buf), what, len(dst)))
	}
	for i, id := range c.buf {
		if id < 0 || id >= int(c.spare) {
			panic(fmt.Sprintf("dag: %s task %+v has %s tile %d outside [0, %d)", c.k.Name(), t, what, id, c.spare))
		}
		dst[i] = uint32(id)
	}
}

// Kernel returns the kernel driving this run.
func (c *Coordinator) Kernel() Kernel { return c.k }

// N returns the tile grid dimension.
func (c *Coordinator) N() int { return c.k.N() }

// Total returns the total task count.
func (c *Coordinator) Total() int { return c.k.Total() }

// Done reports whether every task has completed.
func (c *Coordinator) Done() bool { return c.done == c.k.Total() }

// Pending reports whether tasks remain (ready, running or future).
func (c *Coordinator) Pending() bool { return !c.Done() }

// Completed returns the number of completed tasks.
func (c *Coordinator) Completed() int { return c.done }

// TryAssign picks a schedulable ready task for worker w according to
// the policy, marks its output tiles in flight, performs the
// transfers, and returns the task and the number of blocks shipped.
// ok is false when no ready task is currently schedulable (the worker
// should wait for a completion, or retire if Done).
//
// The pick scans the whole ready set, in order. A candidate is
// schedulable when none of its output tiles has a writer in flight,
// and costs the blocks w misses of its inputs; ties are broken by one
// reservoir draw per tied candidate after the first.
func (c *Coordinator) TryAssign(w int) (t Task, shipped int, ok bool) {
	miss := c.missing[w*c.words : (w+1)*c.words]
	busy := c.inFlight
	bestIdx := -1
	ties := 0
	switch c.policy {
	case RandomReady:
		for idx := range c.cand {
			cd := &c.cand[idx]
			if bit(busy, cd.out[0])|bit(busy, cd.out[1]) != 0 {
				continue
			}
			ties++
			if c.r.Intn(ties) == 0 {
				bestIdx = idx
			}
		}
	case LocalityReady:
		// Above any real cost, so the first schedulable candidate wins.
		bestCost := uint64(maxInputs + 1)
		for idx := range c.cand {
			cd := &c.cand[idx]
			cost := bit(miss, cd.in[0]) + bit(miss, cd.in[1]) + bit(miss, cd.in[2])
			if cost > bestCost || bit(busy, cd.out[0])|bit(busy, cd.out[1]) != 0 {
				continue
			}
			if cost < bestCost {
				bestIdx, bestCost, ties = idx, cost, 1
			} else {
				ties++
				if c.r.Intn(ties) == 0 {
					bestIdx = idx
				}
			}
		}
	case CriticalPathReady:
		bestCost, bestKey := uint64(0), 0
		for idx := range c.cand {
			cd := &c.cand[idx]
			if bit(busy, cd.out[0])|bit(busy, cd.out[1]) != 0 {
				continue
			}
			cost := bit(miss, cd.in[0]) + bit(miss, cd.in[1]) + bit(miss, cd.in[2])
			key := cd.depth
			if bestIdx < 0 || key < bestKey || (key == bestKey && cost < bestCost) {
				bestIdx, bestKey, bestCost, ties = idx, key, cost, 1
			} else if key == bestKey && cost == bestCost {
				ties++
				if c.r.Intn(ties) == 0 {
					bestIdx = idx
				}
			}
		}
	}
	if bestIdx < 0 {
		return Task{}, 0, false
	}
	t, cd := c.ready[bestIdx], c.cand[bestIdx]
	last := len(c.ready) - 1
	c.ready[bestIdx], c.cand[bestIdx] = c.ready[last], c.cand[last]
	c.ready, c.cand = c.ready[:last], c.cand[:last]

	for _, id := range cd.out {
		if id != c.spare {
			setBit(busy, id)
		}
	}
	for _, id := range cd.in {
		if bit(miss, id) != 0 { // never the spare bit
			clearBit(miss, id)
			shipped++
		}
	}
	return t, shipped, true
}

// unlockOutputs releases the write locks of t, which must be assigned,
// and leaves t's output tiles in buf.
func (c *Coordinator) unlockOutputs(t Task, doing string) {
	c.buf = c.k.OutputTiles(t, c.buf[:0])
	for _, id := range c.buf {
		if bit(c.inFlight, uint32(id)) == 0 {
			panic(fmt.Sprintf("dag: %s %s task whose output tile %d is not in flight", doing, c.k.Name(), id))
		}
		clearBit(c.inFlight, uint32(id))
	}
}

// Reassign returns task t (previously assigned by TryAssign and never
// completed) to the ready set: its output tiles' write locks are
// released so another ready task — or t itself, under a different
// worker — can claim them. No tile was rewritten (the abandoned worker
// never produced the outputs), so every worker still holds what it
// held, and when t lands on a worker that misses input tiles, TryAssign
// charges the re-ship blocks exactly like any other assignment.
func (c *Coordinator) Reassign(t Task) {
	c.unlockOutputs(t, "reassigning")
	c.ready = append(c.ready, t)
	c.describeReady()
}

// Complete marks task t (previously assigned to worker w) finished:
// its output tiles are rewritten, so every worker but the writer now
// misses them, and newly ready tasks enter the ready set.
func (c *Coordinator) Complete(w int, t Task) {
	c.unlockOutputs(t, "completing")
	for _, id := range c.buf {
		for set := c.missing; len(set) > 0; set = set[c.words:] {
			setBit(set, uint32(id))
		}
		clearBit(c.missing[w*c.words:(w+1)*c.words], uint32(id))
	}
	c.done++
	c.ready = c.k.Complete(t, c.ready)
	c.describeReady()
}
