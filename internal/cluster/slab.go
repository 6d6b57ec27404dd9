package cluster

import "sync"

// This file is the harness's slab recycling: the two allocations that
// scale with fleet size — the event heap and the per-run worker-state
// slab (which owns every worker's pending-poll grant buffers) — are
// pooled across Run calls, so a benchmark or test that executes the
// same scenario shape repeatedly (BenchmarkScenario's rows) pays the
// fleet's memory once instead of once per scenario. Everything that
// escapes into the Result (busy times, the accepted ledger, the
// service's own collectors) is deliberately NOT pooled: a Result must
// stay valid after the next Run begins.

// slabs is one reusable set of harness-internal arrays.
type slabs struct {
	heap   []ev
	fleets [][]workerState
}

var slabPool = sync.Pool{New: func() any { return &slabs{} }}

// fleet returns a zeroed worker-state slab of size p, recycling a
// pooled one when its capacity suffices. Recycled workers keep their
// grant buffers (capacity only), so a fleet's steady-state poll loop
// re-allocates nothing on its second scenario.
func (sl *slabs) fleet(p int) []workerState {
	for i, f := range sl.fleets {
		if cap(f) >= p {
			last := len(sl.fleets) - 1
			sl.fleets[i] = sl.fleets[last]
			sl.fleets = sl.fleets[:last]
			f = f[:p]
			resetFleet(f)
			return f
		}
	}
	return make([]workerState, p)
}

// resetFleet zeroes every worker but keeps the capacity of its two
// alternating grant buffers.
func resetFleet(fleet []workerState) {
	for i := range fleet {
		bufs := fleet[i].bufs
		bufs[0] = bufs[0][:0]
		bufs[1] = bufs[1][:0]
		fleet[i] = workerState{bufs: bufs}
	}
}

// release returns the harness's slabs to the pool once the scenario's
// Result has been collected (nothing in a Result aliases them).
func (h *harness) release() {
	sl := h.slabs
	if sl == nil {
		return
	}
	sl.heap = h.q.h[:0]
	for _, rs := range h.runs {
		sl.fleets = append(sl.fleets, rs.workers[:0])
		rs.workers = nil
	}
	h.slabs = nil
	slabPool.Put(sl)
}
