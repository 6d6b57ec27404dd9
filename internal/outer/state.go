package outer

import (
	"encoding/binary"

	"hetsched/internal/bitset"
	"hetsched/internal/core"
	"hetsched/internal/rng"
)

// The four strategies implement core.Snapshotter. Every state starts
// with what the Instance holds — the rng, the processed set and each
// worker's a and b ownership sets — and goes on with the strategy's
// own fields. remaining is not written: it is the processed set's
// complement.

func (in *Instance) appendState(dst []byte) []byte {
	dst = in.r.AppendState(dst)
	dst = in.processed.AppendWords(dst)
	for w := range in.aKnown {
		dst = in.aKnown[w].AppendWords(dst)
		dst = in.bKnown[w].AppendWords(dst)
	}
	return dst
}

func (in *Instance) restore(r *core.StateReader) {
	if err := in.r.RestoreState(r.Bytes(rng.StateBytes)); err != nil {
		r.Fail(err)
	}
	if !in.processed.LoadWords(r.Word) {
		r.Failf("outer: processed set has a task past n²")
	}
	for w := range in.aKnown {
		if !in.aKnown[w].LoadWords(r.Word) || !in.bKnown[w].LoadWords(r.Word) {
			r.Failf("outer: worker %d holds a block past n", w)
		}
	}
	in.remaining = in.n*in.n - in.processed.Count()
}

// admitUnprocessed is the check on a restored task pool: a random
// strategy's pool is exactly the unprocessed tasks, so it admits each
// of them once (the caller reads remaining of them).
func (in *Instance) admitUnprocessed() func(core.Task) bool {
	n2 := in.n * in.n
	seen := bitset.New(n2)
	return func(t core.Task) bool {
		return int64(t) < int64(n2) && !in.processed.Test(int(t)) && seen.SetIfClear(int(t))
	}
}

// restoreWith reads src into the instance and then into the strategy's
// own fields.
func restoreWith(in *Instance, src []byte, own func(*core.StateReader)) error {
	r := core.NewStateReader(src)
	in.restore(r)
	own(r)
	return r.Done()
}

// AppendState implements core.Snapshotter: the pool follows the
// instance.
func (s *Random) AppendState(dst []byte) []byte {
	return s.pool.AppendState(s.inst.appendState(dst))
}

// RestoreState implements core.Snapshotter.
func (s *Random) RestoreState(src []byte) error {
	return restoreWith(s.inst, src, func(r *core.StateReader) {
		s.pool.RestoreState(r, s.inst.remaining, s.inst.admitUnprocessed())
	})
}

// AppendState implements core.Snapshotter: the cursor follows the
// instance.
func (s *Sorted) AppendState(dst []byte) []byte {
	return binary.AppendUvarint(s.inst.appendState(dst), uint64(s.cursor))
}

// RestoreState implements core.Snapshotter. The processed tasks are
// exactly those below the cursor.
func (s *Sorted) RestoreState(src []byte) error {
	return restoreWith(s.inst, src, func(r *core.StateReader) {
		n2 := s.inst.n * s.inst.n
		s.cursor = r.Int(n2, "cursor")
		if r.Ok() && s.inst.remaining != n2-s.cursor {
			r.Failf("outer: %d tasks processed below cursor %d", n2-s.inst.remaining, s.cursor)
		}
		for t := 0; t < s.cursor && r.Ok(); t++ {
			if !s.inst.processed.Test(t) {
				r.Failf("outer: task %d below cursor %d is unprocessed", t, s.cursor)
			}
		}
	})
}

// AppendState implements core.Snapshotter: per worker, a presence flag
// (state is built on a worker's first step) and, when present, its I
// and J pools with the indices drawn from each in order.
func (s *Dynamic) AppendState(dst []byte) []byte {
	dst = s.inst.appendState(dst)
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

// RestoreState implements core.Snapshotter.
func (s *Dynamic) RestoreState(src []byte) error {
	return restoreWith(s.inst, src, s.restoreWorkers)
}

func (s *Dynamic) restoreWorkers(r *core.StateReader) {
	n := s.inst.n
	for w := range s.dyn {
		if !r.Bool() {
			continue
		}
		st := &s.dyn[w]
		st.init(n)
		st.iKnown = st.iPool.RestoreState(r, n, st.iKnown)
		st.jKnown = st.jPool.RestoreState(r, n, st.jKnown)
	}
}

// AppendState implements core.Snapshotter: the phase-1 state, the
// switch flag and, once switched, the phase-1 task count and the pool.
func (s *TwoPhases) AppendState(dst []byte) []byte {
	dst = core.AppendBool(s.dyn.AppendState(dst), s.switched)
	if s.switched {
		dst = binary.AppendUvarint(dst, uint64(s.phase1))
		dst = s.pool.AppendState(dst)
	}
	return dst
}

// RestoreState implements core.Snapshotter.
func (s *TwoPhases) RestoreState(src []byte) error {
	inst := s.dyn.inst
	return restoreWith(inst, src, func(r *core.StateReader) {
		s.dyn.restoreWorkers(r)
		if s.switched = r.Bool(); s.switched {
			s.phase1 = r.Int(inst.n*inst.n-inst.remaining, "phase-1 task count")
			s.pool = core.NewTaskPool(make([]core.Task, 0, inst.remaining))
			s.pool.RestoreState(r, inst.remaining, inst.admitUnprocessed())
		}
	})
}
