package sim

// eventHeap is a hand-rolled index-based binary min-heap over a flat
// event slice, RunBandwidth's queue: a worker there has several
// arrivals pending at once, so run's one-leaf-per-processor tree does
// not fit. Unlike container/heap it boxes no element through an
// interface. Elements provide their own strict ordering via before;
// ties must be broken (the engines use a monotonic sequence number),
// making the order total and the pop sequence identical to
// container/heap's for the same comparator.
type eventHeap[E interface{ before(E) bool }] struct {
	ev []E
}

func (h *eventHeap[E]) len() int { return len(h.ev) }

// push appends e and sifts it up to its heap position.
func (h *eventHeap[E]) push(e E) {
	h.ev = append(h.ev, e)
	ev := h.ev
	i := len(ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev[i].before(ev[parent]) {
			break
		}
		ev[i], ev[parent] = ev[parent], ev[i]
		i = parent
	}
}

// pop removes and returns the minimum element. It panics on an empty
// heap (the engines only pop under a len() guard).
func (h *eventHeap[E]) pop() E {
	ev := h.ev
	top := ev[0]
	last := len(ev) - 1
	ev[0] = ev[last]
	var zero E
	ev[last] = zero // release references held by pointer-carrying events
	ev = ev[:last]
	h.ev = ev
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		m := l
		if r := l + 1; r < last && ev[r].before(ev[l]) {
			m = r
		}
		if !ev[m].before(ev[i]) {
			break
		}
		ev[i], ev[m] = ev[m], ev[i]
		i = m
	}
	return top
}
