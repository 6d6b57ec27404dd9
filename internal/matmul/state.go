package matmul

import "hetsched/internal/core"

// AppendState implements core.Snapshotter: the instance, then the
// workers.
func (s *Dynamic) AppendState(dst []byte) []byte { return s.AppendWorkers(s.Append(dst)) }

// RestoreState implements core.Snapshotter.
func (s *Dynamic) RestoreState(src []byte) error { return s.Restore(src, s.RestoreWorkers) }

// AppendWorkers implements flat.Dynamic: per worker, its I, J and K
// pools with the indices drawn from each in order.
func (s *Dynamic) AppendWorkers(dst []byte) []byte {
	for w := range s.dyn {
		st := &s.dyn[w]
		dst = st.iPool.AppendState(dst, st.iKnown)
		dst = st.jPool.AppendState(dst, st.jKnown)
		dst = st.kPool.AppendState(dst, st.kKnown)
	}
	return dst
}

// RestoreWorkers implements flat.Dynamic.
func (s *Dynamic) RestoreWorkers(r *core.StateReader) {
	n := s.N
	for w := range s.dyn {
		st := &s.dyn[w]
		st.iKnown = st.iPool.RestoreState(r, n, st.iKnown)
		st.jKnown = st.jPool.RestoreState(r, n, st.jKnown)
		st.kKnown = st.kPool.RestoreState(r, n, st.kKnown)
		s.kSet[w].Reset()
		for _, k := range st.kKnown {
			s.kSet[w].Set(int(k))
		}
	}
}
