package core

import (
	"encoding/binary"

	"hetsched/internal/bitset"
	"hetsched/internal/rng"
)

// IndexPool draws, without replacement and in uniformly random order,
// indices from [0, n). The data-aware strategies use one pool per
// processor and per dimension to pick the "fresh" row/column/layer
// indices a processor does not know yet.
type IndexPool struct {
	remaining []int32
}

// NewIndexPool returns a pool over [0, n).
func NewIndexPool(n int) *IndexPool {
	p := &IndexPool{remaining: make([]int32, n)}
	for i := range p.remaining {
		p.remaining[i] = int32(i)
	}
	return p
}

// Draw removes and returns a uniformly random index, with ok=false
// when the pool is empty.
func (p *IndexPool) Draw(r *rng.PCG) (idx int, ok bool) {
	n := len(p.remaining)
	if n == 0 {
		return 0, false
	}
	at := r.Intn(n)
	v := p.remaining[at]
	p.remaining[at] = p.remaining[n-1]
	p.remaining = p.remaining[:n-1]
	return int(v), true
}

// Left returns the number of indices not yet drawn.
func (p *IndexPool) Left() int { return len(p.remaining) }

// AppendState appends the state of a pool over [0, n) together with
// drawn, the indices its owner has drawn from it in order: the count
// of drawn, the drawn indices, then the undrawn ones in slice order —
// draws index into that order, so it is state too.
func (p *IndexPool) AppendState(dst []byte, drawn []int32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(drawn)))
	for _, v := range drawn {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	for _, v := range p.remaining {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// RestoreState reads what AppendState wrote for a pool over [0, n)
// into the pool and into drawn[:0], which it returns, and checks that
// the two partition [0, n).
func (p *IndexPool) RestoreState(r *StateReader, n int, drawn []int32) []int32 {
	k := r.Int(n, "drawn index count")
	seen := make([]bool, n)
	take := func() int32 {
		v := r.Int(n-1, "index")
		if r.Ok() && seen[v] {
			r.Failf("core: index %d is both drawn and undrawn, or twice either", v)
		}
		seen[v] = true
		return int32(v)
	}
	drawn = drawn[:0]
	for i := 0; i < k && r.Ok(); i++ {
		drawn = append(drawn, take())
	}
	p.remaining = p.remaining[:0]
	for i := k; i < n && r.Ok(); i++ {
		p.remaining = append(p.remaining, take())
	}
	return drawn
}

// TaskPool holds a pool of task identifiers supporting O(1) uniform
// random draws with removal.
//
// The random single-task strategies (RandomOuter/RandomMatrix and the
// second phase of the two-phase strategies) draw from a TaskPool; the
// pool is rebuilt from the processed bit set when a two-phase strategy
// switches. It keeps each id in 4 bytes, so a pool never holds a task
// id of 2^32 or more: a constructor asked for one panics before it
// allocates, and RestoreState refuses one.
//
// A draw reads one slot of a pool of up to millions of tasks, so most
// draws miss the cache. Draw hides the miss: it runs a copy of the
// generator aheadDraws draws ahead of *r and prefetches the slot that
// draw will read. The copy is only a guess. It restarts from *r
// whenever *r is not the state the last Draw left there, so a foreign
// draw from r in between costs a wasted prefetch and nothing else.
type TaskPool struct {
	ids []uint32
	// left is the generator state the last Draw returned with, ahead
	// the same run aheadDraws draws on. The zero left matches no
	// generator rng.New makes (their stream selectors are odd), so the
	// first Draw restarts ahead.
	ahead, left rng.PCG
}

// aheadDraws is how many draws ahead of its generator a TaskPool
// prefetches: enough draws to cover a miss to memory.
const aheadDraws = 4

// maxPoolTasks bounds the tasks a TaskPool can name: ids are uint32.
const maxPoolTasks = 1 << 32

// checkPoolTasks panics unless every id below n fits a pool slot.
func checkPoolTasks(n int) {
	if uint64(n) >= maxPoolTasks {
		panic("core: task pool over 2^32 or more tasks")
	}
}

// NewTaskPool returns a pool holding the tasks 0, 1, …, n−1 in order.
func NewTaskPool(n int) *TaskPool {
	checkPoolTasks(n)
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	return &TaskPool{ids: ids}
}

// NewTaskPoolClear returns a pool holding, in increasing order, the
// tasks of [0, set.Len()) that set does not hold.
func NewTaskPoolClear(set *bitset.Bitset) *TaskPool {
	checkPoolTasks(set.Len())
	ids := make([]uint32, 0, set.Len()-set.Count())
	set.ForEachClear(func(i int) { ids = append(ids, uint32(i)) })
	return &TaskPool{ids: ids}
}

// Draw removes and returns a uniformly random task. ok is false when
// the pool is exhausted.
func (p *TaskPool) Draw(r *rng.PCG) (t Task, ok bool) {
	n := len(p.ids)
	if n == 0 {
		return 0, false
	}
	if *r != p.left {
		p.ahead = *r
		for k := range min(aheadDraws, n) {
			p.ahead.Intn(n - k)
		}
	}
	at := r.Intn(n)
	if m := n - aheadDraws; m > 0 {
		prefetch(&p.ids[p.ahead.Intn(m)])
	}
	v := p.ids[at]
	p.ids[at] = p.ids[n-1]
	p.ids = p.ids[:n-1]
	p.left = *r
	return Task(v), true
}

// Len returns the number of tasks still in the pool.
func (p *TaskPool) Len() int { return len(p.ids) }

// AppendState appends the pool's tasks in slice order, which draws
// index into; the owner knows how many there are.
func (p *TaskPool) AppendState(dst []byte) []byte {
	for _, t := range p.ids {
		dst = binary.AppendUvarint(dst, uint64(t))
	}
	return dst
}

// RestoreState refills the pool with the n tasks AppendState wrote,
// each of which admit must accept and a pool slot must hold. The zero
// TaskPool restores too.
func (p *TaskPool) RestoreState(r *StateReader, n int, admit func(Task) bool) {
	p.left = rng.PCG{}
	if uint64(n) >= maxPoolTasks {
		r.Failf("core: task pool of %d tasks, 2^32 or more", n)
		return
	}
	if cap(p.ids) < n {
		p.ids = make([]uint32, 0, n)
	}
	p.ids = p.ids[:0]
	for i := 0; i < n && r.Ok(); i++ {
		t := r.Uvarint()
		if r.Ok() && (t >= maxPoolTasks || !admit(Task(t))) {
			r.Failf("core: task pool holds task %d out of place", t)
		}
		p.ids = append(p.ids, uint32(t))
	}
}
