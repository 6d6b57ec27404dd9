package matmul

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"hetsched/internal/bitset"
	"hetsched/internal/core"
	"hetsched/internal/rng"
)

// refStep is Dynamic.step as it was before bitset.AppendNewlySet: one
// markProcessed, and one decrement of remaining, per candidate task,
// through closures over the fresh indices.
func refStep(s *Dynamic, w int, buf core.TaskBuf) (core.Assignment, bool) {
	st := &s.dyn[w]
	i, okI := st.iPool.Draw(s.inst.r)
	j, okJ := st.jPool.Draw(s.inst.r)
	k, okK := st.kPool.Draw(s.inst.r)
	if !okI && !okJ && !okK {
		return core.Assignment{}, false
	}

	n := s.inst.n
	oldI, oldJ, oldK := len(st.iKnown), len(st.jKnown), len(st.kKnown)
	newI, newJ, newK := oldI, oldJ, oldK
	if okI {
		newI++
	}
	if okJ {
		newJ++
	}
	if okK {
		newK++
	}
	// Cross-product ownership growth: A covers I×K, B covers K×J, C
	// covers I×J.
	blocks := (newI*newK - oldI*oldK) + (newK*newJ - oldK*oldJ) + (newI*newJ - oldI*oldJ)

	// Record per-block ownership so that a later random phase (and the
	// exec runtime) can query it. The loops below touch exactly the
	// freshly shipped blocks.
	mark := func(set *bitset.Bitset, row, col int) { set.Set(row*n + col) }
	if okI {
		for _, kk := range st.kKnown {
			mark(s.inst.aKnown[w], i, int(kk))
		}
		for _, jj := range st.jKnown {
			mark(s.inst.cKnown[w], i, int(jj))
		}
		if okK {
			mark(s.inst.aKnown[w], i, k)
		}
		if okJ {
			mark(s.inst.cKnown[w], i, j)
		}
	}
	if okJ {
		for _, kk := range st.kKnown {
			mark(s.inst.bKnown[w], int(kk), j)
		}
		for _, ii := range st.iKnown {
			mark(s.inst.cKnown[w], int(ii), j)
		}
		if okK {
			mark(s.inst.bKnown[w], k, j)
		}
	}
	if okK {
		for _, jj := range st.jKnown {
			mark(s.inst.bKnown[w], k, int(jj))
		}
		for _, ii := range st.iKnown {
			mark(s.inst.aKnown[w], int(ii), k)
		}
	}

	// Enumerate the newly covered cube region I'×J'×K' \ I×J×K as
	// three disjoint slabs (fresh-i slab, fresh-j slab, fresh-k slab).
	tasks := buf[:0]
	try := func(ti, tj, tk int) {
		t := TaskID(ti, tj, tk, n)
		if s.inst.markProcessed(t) {
			tasks = append(tasks, t)
		}
	}
	withNewJ := func(fn func(jj int)) {
		for _, jj := range st.jKnown {
			fn(int(jj))
		}
		if okJ {
			fn(j)
		}
	}
	withNewK := func(fn func(kk int)) {
		for _, kk := range st.kKnown {
			fn(int(kk))
		}
		if okK {
			fn(k)
		}
	}
	if okI {
		withNewJ(func(jj int) {
			withNewK(func(kk int) { try(i, jj, kk) })
		})
	}
	if okJ {
		for _, ii := range st.iKnown { // old I only: fresh i handled above
			withNewK(func(kk int) { try(int(ii), j, kk) })
		}
	}
	if okK {
		for _, ii := range st.iKnown {
			for _, jj := range st.jKnown { // old I × old J only
				try(int(ii), int(jj), k)
			}
		}
	}

	if okI {
		st.iKnown = append(st.iKnown, int32(i))
	}
	if okJ {
		st.jKnown = append(st.jKnown, int32(j))
	}
	if okK {
		st.kKnown = append(st.kKnown, int32(k))
	}
	return core.Assignment{Tasks: tasks, Blocks: blocks}, true
}

// refDynamicNext is Dynamic.NextInto over refStep.
func refDynamicNext(s *Dynamic, w int, buf core.TaskBuf) (core.Assignment, bool) {
	if s.inst.remaining == 0 {
		return core.Assignment{}, false
	}
	return refStep(s, w, buf)
}

// refTwoPhasesNext is TwoPhases.NextInto over refStep.
func refTwoPhasesNext(s *TwoPhases, w int, buf core.TaskBuf) (core.Assignment, bool) {
	inst := s.dyn.inst
	if !s.switched && inst.remaining > 0 && inst.remaining <= s.threshold {
		s.switchPhase()
	}
	if !s.switched {
		return refDynamicNext(s.dyn, w, buf)
	}
	t, ok := s.pool.Draw(inst.r)
	if !ok {
		return core.Assignment{}, false
	}
	inst.markProcessed(t)
	return core.Assignment{Tasks: append(buf[:0], t), Blocks: inst.receive(w, t)}, true
}

// snapScheduler is what the step test compares of a strategy.
type snapScheduler interface {
	core.Scheduler
	core.Snapshotter
}

// TestDynamicStepUnchanged replays 200 seeded runs of DynamicMatrix and
// DynamicMatrix2Phases against refStep: every assignment, the final
// remaining count and the final driver state must be equal. Workers
// poll in a seeded random order and never complete, so a batch depends
// only on the step.
func TestDynamicStepUnchanged(t *testing.T) {
	const runs = 200
	for _, name := range []string{"dynamic", "2phases"} {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= runs; seed++ {
				pick := rng.NewStream(seed, 1)
				n, p := 1+pick.Intn(12), 1+pick.Intn(8)
				label := fmt.Sprintf("seed %d (n=%d p=%d)", seed, n, p)
				switch name {
				case "dynamic":
					live, ref := NewDynamic(n, p, rng.New(seed)), NewDynamic(n, p, rng.New(seed))
					checkSteps(t, label, live, ref, func(w int) (core.Assignment, bool) {
						return refDynamicNext(ref, w, nil)
					}, pick)
				case "2phases":
					th := pick.Intn(n*n*n + 1)
					live, ref := NewTwoPhases(n, p, th, rng.New(seed)), NewTwoPhases(n, p, th, rng.New(seed))
					checkSteps(t, label, live, ref, func(w int) (core.Assignment, bool) {
						return refTwoPhasesNext(ref, w, nil)
					}, pick)
				}
			}
		})
	}
}

// checkSteps polls live and, through refNext, ref with the same worker
// until live drains, comparing each answer and the remaining count
// after it.
func checkSteps(t *testing.T, label string, live, ref snapScheduler, refNext func(w int) (core.Assignment, bool), pick *rng.PCG) {
	t.Helper()
	for poll := 0; live.Remaining() > 0; poll++ {
		w := pick.Intn(live.P())
		got, gotOK := live.NextInto(w, nil)
		want, wantOK := refNext(w)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s poll %d worker %d: got (%v, %v), reference (%v, %v)", label, poll, w, got, gotOK, want, wantOK)
		}
		if got, want := live.Remaining(), ref.Remaining(); got != want {
			t.Fatalf("%s poll %d: Remaining = %d, reference %d", label, poll, got, want)
		}
	}
	if !bytes.Equal(live.AppendState(nil), ref.AppendState(nil)) {
		t.Fatalf("%s: final driver state differs from the reference", label)
	}
}
