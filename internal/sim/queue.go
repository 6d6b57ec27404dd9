package sim

import (
	"math"
	"math/bits"
)

// procQueue is the event loop's queue: a winner tree with one leaf per
// processor, which is all run needs, since a processor never has more
// than one pending event. Node 1 is the root, node i's children are 2i
// and 2i+1, and processor w's leaf is node L+w, L the smallest power of
// two at least p. Every inner node holds the earlier of its children,
// so the root is the earliest pending event. An absent leaf holds
// noEvent, which every event precedes.
//
// set and remove walk one leaf-to-root path, reading one sibling per
// level; a heap would pay a sift-down to pop and a sift-up to push.
// (t, seq) is a strict total order, so the pop sequence is the heap's.
type procQueue struct {
	node []event
}

var noEvent = event{t: math.Inf(1), proc: -1, seq: math.MaxUint64}

// newProcQueue returns the queue of p processors, each with an event at
// time 0, processor k's with seq k.
func newProcQueue(p int) procQueue {
	leaves := 1
	for leaves < p {
		leaves *= 2
	}
	node := make([]event, 2*leaves)
	for w := range leaves {
		node[leaves+w] = noEvent
		if w < p {
			node[leaves+w] = event{t: 0, proc: w, seq: uint64(w)}
		}
	}
	for i := leaves - 1; i >= 1; i-- {
		node[i] = node[2*i]
		if node[2*i+1].before(node[i]) {
			node[i] = node[2*i+1]
		}
	}
	return procQueue{node: node}
}

// top returns the earliest pending event, or noEvent (proc -1) when no
// processor has one.
func (q *procQueue) top() event { return q.node[1] }

// set makes e its processor's pending event, replacing any it had.
func (q *procQueue) set(e event) { q.update(len(q.node)/2+e.proc, e) }

// remove clears processor w's pending event.
func (q *procQueue) remove(w int) { q.update(len(q.node)/2+w, noEvent) }

// update stores e at leaf i and replays the matches on its path.
//
// A match has no branch, which would be mispredicted at about half the
// levels: event times are never negative or NaN (run refuses a speed
// that is not positive), so t's bits order as t does, and (t, seq)
// compares as one 128-bit number. The borrow of s − e is 1 exactly
// when s.before(e), and its mask selects s.
func (q *procQueue) update(i int, e event) {
	node := q.node
	node[i] = e
	for ; i > 1; i >>= 1 {
		s := node[i^1]
		_, b := bits.Sub64(s.seq, e.seq, 0)
		_, b = bits.Sub64(math.Float64bits(s.t), math.Float64bits(e.t), b)
		m := -b
		e = event{
			t:    math.Float64frombits(math.Float64bits(e.t)&^m | math.Float64bits(s.t)&m),
			proc: e.proc&^int(m) | s.proc&int(m),
			seq:  e.seq&^m | s.seq&m,
		}
		node[i>>1] = e
	}
}
