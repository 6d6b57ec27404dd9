package outer

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/rng"
)

// refStep is Dynamic.step as it was before bitset.AppendNewlySet: one
// markProcessed, and one decrement of remaining, per candidate task.
func refStep(s *Dynamic, w int, buf core.TaskBuf) (core.Assignment, bool) {
	st := &s.dyn[w]
	if st.iPool == nil {
		st.init(s.inst.n)
	}
	i, okI := st.iPool.Draw(s.inst.r)
	j, okJ := st.jPool.Draw(s.inst.r)
	if !okI && !okJ {
		return core.Assignment{}, false
	}

	tasks := buf[:0]
	blocks := 0
	n := s.inst.n
	if okI {
		blocks++
		s.inst.aKnown[w].Set(i)
		for _, jj := range st.jKnown {
			t := TaskID(i, int(jj), n)
			if s.inst.markProcessed(t) {
				tasks = append(tasks, t)
			}
		}
		if okJ {
			t := TaskID(i, j, n)
			if s.inst.markProcessed(t) {
				tasks = append(tasks, t)
			}
		}
	}
	if okJ {
		blocks++
		s.inst.bKnown[w].Set(j)
		for _, ii := range st.iKnown {
			t := TaskID(int(ii), j, n)
			if s.inst.markProcessed(t) {
				tasks = append(tasks, t)
			}
		}
	}
	if okI {
		st.iKnown = append(st.iKnown, int32(i))
	}
	if okJ {
		st.jKnown = append(st.jKnown, int32(j))
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

// TestDynamicStepUnchanged replays 200 small and 2 wide (n in 65–150,
// so a row spans several words at unaligned offsets) seeded runs of DynamicOuter and
// DynamicOuter2Phases against refStep: every assignment, the final
// remaining count and the final driver state must be equal. Workers
// poll in a seeded random order and never complete, so a batch depends
// only on the step.
func TestDynamicStepUnchanged(t *testing.T) {
	const runs, wide = 200, 2
	for _, name := range []string{"dynamic", "2phases"} {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= runs+wide; seed++ {
				pick := rng.NewStream(seed, 1)
				n := 1 + pick.Intn(40)
				if seed > runs {
					n = 65 + pick.Intn(86)
				}
				p := 1 + pick.Intn(8)
				label := fmt.Sprintf("seed %d (n=%d p=%d)", seed, n, p)
				switch name {
				case "dynamic":
					live, ref := NewDynamic(n, p, rng.New(seed)), NewDynamic(n, p, rng.New(seed))
					checkSteps(t, label, live, ref, func(w int) (core.Assignment, bool) {
						return refDynamicNext(ref, w, nil)
					}, pick)
				case "2phases":
					th := pick.Intn(n*n + 1)
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

// TestSwitchDropsPhase1State: from the phase switch to drain, a
// TwoPhases run keeps no worker's phase-1 state, and its state codec
// writes every worker absent.
func TestSwitchDropsPhase1State(t *testing.T) {
	switched := 0
	for seed := uint64(1); seed <= 100; seed++ {
		pick := rng.NewStream(seed, 1)
		n, p := 2+pick.Intn(20), 1+pick.Intn(8)
		s := NewTwoPhases(n, p, 1+pick.Intn(n*n-1), rng.New(seed))
		for w := 0; s.Remaining() > 0; w = (w + 1) % p {
			s.Next(w)
			if !s.switched {
				continue
			}
			for v := range s.dyn.dyn {
				if !reflect.DeepEqual(s.dyn.dyn[v], dynState{}) {
					t.Fatalf("seed %d: worker %d keeps its phase-1 state after the switch", seed, v)
				}
			}
			want := s.dyn.inst.appendState(nil)
			for range p {
				want = core.AppendBool(want, false)
			}
			want = binary.AppendUvarint(core.AppendBool(want, true), uint64(s.phase1))
			if got := s.AppendState(nil); !bytes.Equal(got, s.pool.AppendState(want)) {
				t.Fatalf("seed %d: switched state does not write every worker absent", seed)
			}
		}
		if s.switched {
			switched++
		}
	}
	if switched < 50 {
		t.Fatalf("only %d of 100 runs switched", switched)
	}
}

// BenchmarkDynamicStep prices one DynamicOuter run to drain, n=1000 and
// p=100 (10⁶ tasks), in ns per task.
func BenchmarkDynamicStep(b *testing.B) {
	const n, p = 1000, 100
	for i := 0; i < b.N; i++ {
		s := NewDynamic(n, p, rng.New(uint64(i)+1))
		var buf core.TaskBuf
		for w := 0; s.Remaining() > 0; w = (w + 1) % p {
			a, _ := s.NextInto(w, buf)
			buf = a.Tasks
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*n), "ns/task")
}
