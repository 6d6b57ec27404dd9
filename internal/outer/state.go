package outer

import (
	"hetsched/internal/bitset"
	"hetsched/internal/core"
)

// AppendState implements core.Snapshotter: the instance, then the
// workers.
func (s *Dynamic) AppendState(dst []byte) []byte { return s.AppendWorkers(s.Append(dst)) }

// RestoreState implements core.Snapshotter.
func (s *Dynamic) RestoreState(src []byte) error { return s.Restore(src, s.RestoreWorkers) }

// AppendWorkers implements flat.Dynamic: per worker, a presence flag
// (state is built on a worker's first step) and, when present, its I
// and J pools with the indices drawn from each in order.
func (s *Dynamic) AppendWorkers(dst []byte) []byte {
	for w := range s.dyn {
		st := &s.dyn[w]
		dst = core.AppendBool(dst, st.iPool != nil)
		if st.iPool != nil {
			dst = st.iPool.AppendState(dst, st.iKnown)
			dst = st.jPool.AppendState(dst, st.jKnown)
		}
	}
	return dst
}

// RestoreWorkers implements flat.Dynamic.
func (s *Dynamic) RestoreWorkers(r *core.StateReader) {
	n := s.N
	for w := range s.dyn {
		if !r.Bool() {
			continue
		}
		st := &s.dyn[w]
		st.init(n)
		st.iKnown = st.iPool.RestoreState(r, n, st.iKnown)
		st.jKnown = st.jPool.RestoreState(r, n, st.jKnown)
		// A fresh row's tasks are counted against the worker's b set
		// (step), so a worker must hold every block its lists name.
		if r.Ok() && !(holdsAll(&s.Own[0][w], st.iKnown) && holdsAll(&s.Own[1][w], st.jKnown)) {
			r.Failf("outer: worker %d lists a block it does not hold", w)
		}
	}
}

// holdsAll reports whether every index of known is in set.
func holdsAll(set *bitset.Bitset, known []int32) bool {
	for _, k := range known {
		if !set.Test(int(k)) {
			return false
		}
	}
	return true
}
