package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// procQueue is the event loop's queue: a winner tree with one leaf per
// processor, which is all run needs, since a processor never has more
// than one pending event. Node 1 is the root, node i's children are 2i
// and 2i+1, and processor w's leaf is node L+w, L the smallest power of
// two at least p. Every inner node holds the earlier of its children,
// so the root is the earliest pending event. An absent leaf holds
// noNode, which every event precedes.
//
// set and remove walk one leaf-to-root path, reading one sibling per
// level; a heap would pay a sift-down to pop and a sift-up to push.
// (t, seq) is a strict total order, so the pop sequence is the heap's.
type procQueue struct {
	node []qnode
}

// qnode is an event as two integer words: t's bits, and key =
// seq<<procBits | proc. Event times are never negative or NaN (run
// refuses a speed that is not positive), so t's bits order as t does;
// seq is unique, so key orders as seq does. seq counts grants, at most
// p plus the task count, far below 2^40.
type qnode struct {
	t, key uint64
}

// procBits is the width of proc in a node's key: newProcQueue refuses
// p ≥ 2^procBits.
const procBits = 24

var noNode = qnode{t: math.Float64bits(math.Inf(1)), key: math.MaxUint64}

var noEvent = event{t: math.Inf(1), proc: -1, seq: math.MaxUint64}

// newProcQueue returns the queue of p processors, each with an event at
// time 0, processor k's with seq k.
func newProcQueue(p int) procQueue {
	if p >= 1<<procBits {
		panic(fmt.Sprintf("sim: %d processors, the queue holds fewer than 2^%d", p, procBits))
	}
	leaves := 1
	for leaves < p {
		leaves *= 2
	}
	node := make([]qnode, 2*leaves)
	for w := range leaves {
		node[leaves+w] = noNode
		if w < p {
			node[leaves+w] = qnode{t: 0, key: uint64(w)<<procBits | uint64(w)}
		}
	}
	for i := leaves - 1; i >= 1; i-- {
		node[i] = node[2*i]
		if r := node[2*i+1]; r.t < node[i].t || r.t == node[i].t && r.key < node[i].key {
			node[i] = r
		}
	}
	return procQueue{node: node}
}

// top returns the earliest pending event, or noEvent (proc -1) when no
// processor has one.
func (q *procQueue) top() event {
	r := q.node[1]
	if r.key == noNode.key {
		return noEvent
	}
	return event{t: math.Float64frombits(r.t), proc: int(r.key & (1<<procBits - 1)), seq: r.key >> procBits}
}

// set makes e its processor's pending event, replacing any it had.
func (q *procQueue) set(e event) {
	q.update(len(q.node)/2+e.proc, qnode{t: math.Float64bits(e.t), key: e.seq<<procBits | uint64(e.proc)})
}

// remove clears processor w's pending event.
func (q *procQueue) remove(w int) { q.update(len(q.node)/2+w, noNode) }

// update stores e at leaf i and replays the matches on its path.
//
// A match has no branch, which would be mispredicted at about half the
// levels: (t, key) compares as one 128-bit number. The borrow of s − e
// is 1 exactly when s precedes e, and its mask selects s.
func (q *procQueue) update(i int, e qnode) {
	node := q.node
	node[i] = e
	for ; i > 1; i >>= 1 {
		s := node[i^1]
		_, b := bits.Sub64(s.key, e.key, 0)
		_, b = bits.Sub64(s.t, e.t, b)
		m := -b
		e = qnode{t: e.t&^m | s.t&m, key: e.key&^m | s.key&m}
		node[i>>1] = e
	}
}
