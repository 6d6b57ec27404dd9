package dag

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"hetsched/internal/rng"
)

// Coordinator is the kernel-agnostic master-side state of a DAG run:
// the ready set, one write-lock bit per tile, one bit per tile × worker
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
	k        *Kernel
	g        Progress
	n, total int
	policy   Policy
	r        *rng.PCG
	p        int

	// ready[i] is described by cand[i]; the two are appended to and
	// swap-removed together. The order is part of every schedule: ties
	// are broken by reservoir draws in scan order.
	ready []Task
	cand  []candidate

	// Tile sets carry one spare last tile, index n², that is never
	// set: the unused entries of a candidate point at it.
	words    int      // words of inFlight
	spare    uint32   // n²
	inFlight []uint64 // a writing task is currently assigned
	// missing is tile-major: tile id's row is the pw words from id·pw,
	// with bit w set while w lacks the tile's current contents, so a
	// completion rewrites one row. The spare tile's row is all zero;
	// full is the last word of a row in which every worker's bit is set.
	pw      int
	full    uint64
	missing []uint64

	// index is LocalityReady's cost index, and ix points at it while
	// the ready set is long enough for it to pay (see switchIndex).
	index costIndex
	ix    *costIndex

	buf  []int
	done int
}

// costIndex keeps LocalityReady's costs between picks. Each worker may
// hold a row, a byte per ready position, current up to its own last
// pick; one shared log lists the positions whose cost may since have
// changed for every worker: a task entering the ready set, the task a
// swap-remove moves, and each ready task reading a tile a completion
// rewrote, found through a list per tile of the slots reading it. A
// pick replays its worker's part of the log, or, when that is longer
// than the ready set, computes the costs during the scan. A worker gets
// a row at the first pick that finds it that close, so one that is
// always further behind, as when p is far above the ready set, holds
// none. A ship changes only the picker's costs and updates its row in
// place.
type costIndex struct {
	rows   []byte  // stride bytes per row
	stride int     // a multiple of 64 and at least len(ready)
	rowOf  []int32 // per worker: the row it holds, or -1
	seen   []int   // per worker: the log sequence number of its last pick

	log  []uint32 // ready positions, oldest first
	base int      // the sequence number of log[0]

	// The input slot 3i+j is ready[i]'s input j. head[id] is the first
	// slot reading tile id and links[s] joins slot s to the others of
	// its tile, -1 ending a list. The spare tile's list takes the
	// unused slots and is never walked.
	head  []int32
	links []link

	replays, fills, trims int // counted for tests
}

type link struct{ next, prev int32 }

// The most tiles a task may read and write (see the Progress contract).
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

// cost is the number of cd's input tiles the worker whose bit is bit
// sh of word wi of a row lacks.
func (c *Coordinator) cost(cd *candidate, wi int, sh uint) uint64 {
	m, pw := c.missing, c.pw
	return m[int(cd.in[0])*pw+wi]>>sh&1 + m[int(cd.in[1])*pw+wi]>>sh&1 + m[int(cd.in[2])*pw+wi]>>sh&1
}

// NewCoordinator creates a coordinator for a run of kernel k on n×n
// tiles and p workers.
func NewCoordinator(k *Kernel, n, p int, policy Policy, r *rng.PCG) *Coordinator {
	if k == nil {
		panic("dag: nil kernel")
	}
	if n <= 0 || p <= 0 {
		panic("dag: invalid coordinator shape")
	}
	if r == nil {
		panic("dag: nil rng")
	}
	if policy != RandomReady && policy != LocalityReady && policy != CriticalPathReady {
		panic("dag: unknown policy")
	}
	tiles := n * n
	words, pw := tiles/64+1, (p+63)/64
	c := &Coordinator{
		k:        k,
		g:        k.New(n),
		n:        n,
		total:    k.Tasks(n),
		policy:   policy,
		r:        r,
		p:        p,
		words:    words,
		spare:    uint32(tiles),
		inFlight: make([]uint64, words),
		pw:       pw,
		full:     ^uint64(0) >> (64*pw - p),
		missing:  make([]uint64, (tiles+1)*pw),
	}
	for id := 0; id < tiles; id++ {
		c.fillRow(id)
	}
	if policy == LocalityReady {
		c.index = costIndex{
			stride: 64,
			rowOf:  make([]int32, p),
			seen:   make([]int, p),
			log:    make([]uint32, 0, 3*64),
			head:   make([]int32, tiles+1),
			links:  make([]link, maxInputs*64),
		}
		for w := range c.index.rowOf {
			c.index.rowOf[w] = -1
		}
	}
	c.ready = c.g.InitialReady(c.ready)
	c.describeReady()
	return c
}

// fillRow sets every worker's bit of tile id's row.
func (c *Coordinator) fillRow(id int) {
	row := c.missing[id*c.pw : (id+1)*c.pw]
	for i := range row {
		row[i] = ^uint64(0)
	}
	row[len(row)-1] = c.full
}

// describeReady fills cand for the tasks appended to ready since the
// last call, and is where a kernel that breaks the Progress contract is
// caught: by name, before the task can be scanned.
func (c *Coordinator) describeReady() {
	for i := len(c.cand); i < len(c.ready); i++ {
		t := c.ready[i]
		cd := candidate{
			in:    [maxInputs]uint32{c.spare, c.spare, c.spare},
			out:   [maxOutputs]uint32{c.spare, c.spare},
			depth: t.K,
		}
		c.buf = c.g.InputTiles(t, c.buf[:0])
		c.copyIDs(cd.in[:], t, "input")
		c.buf = c.g.OutputTiles(t, c.buf[:0])
		c.copyIDs(cd.out[:], t, "output")
		c.cand = append(c.cand, cd)
		if x := c.ix; x != nil {
			x.fit(i + 1)
			x.mark(&c.cand[i], i, true)
			x.log = append(x.log, uint32(i))
		}
	}
}

// mark links the slots of position i, whose task is cd, into the
// lists of cd's input tiles, or with read false unlinks them.
func (x *costIndex) mark(cd *candidate, i int, read bool) {
	for j, id := range cd.in {
		s := int32(maxInputs*i + j)
		if read {
			h := x.head[id]
			x.links[s] = link{next: h, prev: -1}
			if h >= 0 {
				x.links[h].prev = s
			}
			x.head[id] = s
			continue
		}
		l := x.links[s]
		if l.prev >= 0 {
			x.links[l.prev].next = l.next
		} else {
			x.head[id] = l.next
		}
		if l.next >= 0 {
			x.links[l.next].prev = l.prev
		}
	}
}

func (c *Coordinator) copyIDs(dst []uint32, t Task, what string) {
	if len(c.buf) > len(dst) {
		panic(fmt.Sprintf("dag: %s task %+v has %d %s tiles, the coordinator holds %d", c.k.Name, t, len(c.buf), what, len(dst)))
	}
	for i, id := range c.buf {
		if id < 0 || id >= int(c.spare) {
			panic(fmt.Sprintf("dag: %s task %+v has %s tile %d outside [0, %d)", c.k.Name, t, what, id, c.spare))
		}
		dst[i] = uint32(id)
	}
}

// Total returns the total task count.
func (c *Coordinator) Total() int { return c.total }

// Done reports whether every task has completed.
func (c *Coordinator) Done() bool { return c.done == c.total }

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
// The pick is a scan of the ready set, in order. A candidate is
// schedulable when none of its output tiles has a writer in flight,
// and costs the blocks w misses of its inputs; ties are broken by one
// reservoir draw per tied candidate after the first. LocalityReady's
// scan reads costs kept between picks and skips the candidates that
// cannot win (see cheapest).
func (c *Coordinator) TryAssign(w int) (t Task, shipped int, ok bool) {
	if len(c.cand) == 0 {
		return Task{}, 0, false
	}
	wi, sh := w>>6, uint(w&63)
	busy := c.inFlight
	bestIdx := -1
	ties := 0
	var row []byte
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
		c.switchIndex()
		row, bestIdx = c.cheapest(w)
	case CriticalPathReady:
		bestCost, bestKey := uint64(0), 0
		for idx := range c.cand {
			cd := &c.cand[idx]
			if bit(busy, cd.out[0])|bit(busy, cd.out[1]) != 0 {
				continue
			}
			cost := c.cost(cd, wi, sh)
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
	c.removeReady(bestIdx)

	for _, id := range cd.out {
		if id != c.spare {
			setBit(busy, id)
		}
	}
	for _, id := range cd.in {
		m := &c.missing[int(id)*c.pw+wi]
		if *m>>sh&1 != 0 { // never the spare row
			*m &^= 1 << sh
			shipped++
			if row != nil {
				for s := c.ix.head[id]; s >= 0; s = c.ix.links[s].next {
					i := s / maxInputs
					row[i] = byte(c.cost(&c.cand[i], wi, sh))
				}
			}
		}
	}
	c.trimLog()
	return t, shipped, true
}

// indexFrom is the ready-set length below which LocalityReady keeps no
// index: a scan of that few candidates costs less than keeping the
// index current through every change (qr n=16 at p=4, fourteen ready
// tasks a pick, ran 14% slower with the index than with the scan).
const indexFrom = 16

// switchIndex turns the index on when the ready set reaches twice
// indexFrom, so that it is rebuilt only after at least indexFrom tasks
// entered the ready set, and off when the set falls below indexFrom.
func (c *Coordinator) switchIndex() {
	n := len(c.cand)
	switch {
	case c.ix == nil && n >= 2*indexFrom:
		x := &c.index
		// Every worker's last pick is now before the log's start, so
		// each fills its row first.
		x.base += len(x.log) + 1
		x.log = x.log[:0]
		x.fit(n)
		for id := range x.head {
			x.head[id] = -1
		}
		for i := range c.cand {
			x.mark(&c.cand[i], i, true)
		}
		c.ix = x
	case c.ix != nil && n < indexFrom:
		c.ix = nil
	}
}

// cheapest is LocalityReady's scan for worker w: the index of the
// task it picks, or -1, and w's row if it holds one.
//
// With the index on, the row is brought current first by replaying
// the log since w's last pick, and the scan reads eight costs a word
// and visits, in order, only the candidates that cost no more than the
// best so far when their word is read; the visit checks the cost
// again, since the best may have dropped within the word. A candidate
// it skips costs more than the best, which only falls, so it would
// never have been drawn for: the draws are those of a visit of every
// candidate. When the log since w's last pick is longer than the ready
// set, or the index is off, the scan computes every cost as it goes
// (and stores it if w holds a row) and visits every candidate.
func (c *Coordinator) cheapest(w int) (row []byte, bestIdx int) {
	n := len(c.cand)
	wi, sh := w>>6, uint(w&63)
	fill := true
	if x := c.ix; x != nil {
		seen, seq := x.seen[w], x.base+len(x.log)
		x.seen[w] = seq
		r := x.rowOf[w]
		fill = seen < x.base || seq-seen > n
		if r < 0 && !fill {
			r, fill = x.newRow(w), true
		}
		if r >= 0 {
			row = x.rows[int(r)*x.stride : int(r+1)*x.stride]
		}
		if fill {
			x.fills++
		} else {
			for _, i := range x.log[seen-x.base:] {
				if int(i) < n {
					row[i] = byte(c.cost(&c.cand[i], wi, sh))
				}
			}
			x.replays++
		}
	}

	busy := c.inFlight
	bestIdx = -1
	// Above any real cost, so the first schedulable candidate wins.
	bestCost := uint64(maxInputs + 1)
	ties := 0
	if fill {
		for idx := range c.cand {
			cd := &c.cand[idx]
			cost := c.cost(cd, wi, sh)
			if row != nil {
				row[idx] = byte(cost)
			}
			if cost > bestCost || bit(busy, cd.out[0])|bit(busy, cd.out[1]) != 0 {
				continue
			}
			if cost < bestCost {
				bestIdx, bestCost, ties = idx, cost, 1
			} else if ties++; c.r.Intn(ties) == 0 {
				bestIdx = idx
			}
		}
		return row, bestIdx
	}
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	for base := 0; base < n; base += 8 {
		costs := binary.LittleEndian.Uint64(row[base:])
		// The high bit of each byte that is at most bestCost.
		m := ^((costs | hi) - lo*(bestCost+1)) & hi
		if n-base < 8 {
			m &= 1<<(8*(n-base)) - 1
		}
		for ; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m) - 7
			idx, cost := base+b>>3, costs>>b&0xff
			cd := &c.cand[idx]
			if cost > bestCost || bit(busy, cd.out[0])|bit(busy, cd.out[1]) != 0 {
				continue
			}
			if cost < bestCost {
				bestIdx, bestCost, ties = idx, cost, 1
			} else if ties++; c.r.Intn(ties) == 0 {
				bestIdx = idx
			}
		}
	}
	return row, bestIdx
}

// newRow gives worker w a row of its own.
func (x *costIndex) newRow(w int) int32 {
	r := int32(len(x.rows) / x.stride)
	x.rows = append(x.rows, make([]byte, x.stride)...)
	x.rowOf[w] = r
	return r
}

// fit makes room for n ready tasks: rows of at least n bytes, their
// input slots, and a log of twice that, where it is trimmed, plus what
// one call may add before the trim.
func (x *costIndex) fit(n int) {
	if n <= x.stride {
		return
	}
	stride := max(2*x.stride, (n+63)&^63)
	rows := make([]byte, len(x.rows)/x.stride*stride)
	for r := 0; r*x.stride < len(x.rows); r++ {
		copy(rows[r*stride:], x.rows[r*x.stride:(r+1)*x.stride])
	}
	links := make([]link, maxInputs*stride)
	copy(links, x.links)
	log := make([]uint32, len(x.log), 3*stride)
	copy(log, x.log)
	x.rows, x.stride, x.links, x.log = rows, stride, links, log
}

// trimLog drops what no worker will replay: a worker more than one
// ready set behind computes its costs afresh.
func (c *Coordinator) trimLog() {
	x := c.ix
	if x == nil || len(x.log) <= 2*len(c.ready) {
		return
	}
	drop := len(x.log) - len(c.ready)
	x.log = x.log[:copy(x.log, x.log[drop:])]
	x.base += drop
	x.trims++
}

// removeReady swap-removes ready[i]: the last task takes its place.
func (c *Coordinator) removeReady(i int) {
	last := len(c.ready) - 1
	if x := c.ix; x != nil {
		x.mark(&c.cand[i], i, false)
		if i != last {
			x.mark(&c.cand[last], last, false)
			x.mark(&c.cand[last], i, true)
			x.log = append(x.log, uint32(i))
		}
	}
	c.ready[i], c.cand[i] = c.ready[last], c.cand[last]
	c.ready, c.cand = c.ready[:last], c.cand[:last]
}

// unlockOutputs releases the write locks of t, which must be assigned,
// and leaves t's output tiles in buf.
func (c *Coordinator) unlockOutputs(t Task, doing string) {
	c.buf = c.g.OutputTiles(t, c.buf[:0])
	for _, id := range c.buf {
		if bit(c.inFlight, uint32(id)) == 0 {
			panic(fmt.Sprintf("dag: %s %s task whose output tile %d is not in flight", doing, c.k.Name, id))
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
		c.fillRow(id)
		c.missing[id*c.pw+w>>6] &^= 1 << (w & 63)
		if x := c.ix; x != nil {
			for s := x.head[id]; s >= 0; s = x.links[s].next {
				x.log = append(x.log, uint32(s/maxInputs))
			}
		}
	}
	c.done++
	c.ready = c.g.Complete(t, c.ready)
	c.describeReady()
	c.trimLog()
}
