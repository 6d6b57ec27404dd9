package outer

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/flat"
	"hetsched/internal/rng"
)

// refStep is Dynamic.step as it was before bitset.AppendNewlySet: one
// MarkProcessed, and one decrement of remaining, per candidate task.
func refStep(s *Dynamic, w int, buf core.TaskBuf) (core.Assignment, bool) {
	st := &s.dyn[w]
	if st.iPool == nil {
		st.init(s.N)
	}
	i, okI := st.iPool.Draw(s.R)
	j, okJ := st.jPool.Draw(s.R)
	if !okI && !okJ {
		return core.Assignment{}, false
	}

	tasks := buf[:0]
	blocks := 0
	n := s.N
	if okI {
		blocks++
		s.Own[0][w].Set(i)
		for _, jj := range st.jKnown {
			t := TaskID(i, int(jj), n)
			if s.MarkProcessed(t) {
				tasks = append(tasks, t)
			}
		}
		if okJ {
			t := TaskID(i, j, n)
			if s.MarkProcessed(t) {
				tasks = append(tasks, t)
			}
		}
	}
	if okJ {
		blocks++
		s.Own[1][w].Set(j)
		for _, ii := range st.iKnown {
			t := TaskID(int(ii), j, n)
			if s.MarkProcessed(t) {
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
	if s.Left == 0 {
		return core.Assignment{}, false
	}
	return refStep(s, w, buf)
}

// refKernel is Kernel with refStep for DynamicOuter's step, so that
// a flat.TwoPhases on it is DynamicOuter2Phases over refStep.
var refKernel = func() *flat.Kernel {
	k := *Kernel
	k.NewDynamic = func(in *flat.Instance) flat.Dynamic { return refDynamic{newDynamic(in)} }
	return &k
}()

// refDynamic is a Dynamic that steps with refStep.
type refDynamic struct{ *Dynamic }

func (d refDynamic) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	return refDynamicNext(d.Dynamic, w, buf)
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
					live, ref := flat.NewTwoPhases(Kernel, n, p, th, rng.New(seed)), flat.NewTwoPhases(refKernel, n, p, th, rng.New(seed))
					checkSteps(t, label, live, ref, func(w int) (core.Assignment, bool) {
						return ref.NextInto(w, nil)
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

// newTwoPhases is flat.NewTwoPhases on Kernel, and the Dynamic that is
// its first phase.
func newTwoPhases(n, p, threshold int, r *rng.PCG) (*flat.TwoPhases, *Dynamic) {
	var d *Dynamic
	k := *Kernel
	k.NewDynamic = func(in *flat.Instance) flat.Dynamic {
		d = newDynamic(in)
		return d
	}
	s := flat.NewTwoPhases(&k, n, p, threshold, r)
	return s, d
}

// TestSwitchDropsPhase1State: from the phase switch to drain, a
// TwoPhases run keeps no worker's phase-1 state, and its state codec
// writes every worker absent.
func TestSwitchDropsPhase1State(t *testing.T) {
	switched := 0
	for seed := uint64(1); seed <= 100; seed++ {
		pick := rng.NewStream(seed, 1)
		n, p := 2+pick.Intn(20), 1+pick.Intn(8)
		th := 1 + pick.Intn(n*n-1)
		s, d := newTwoPhases(n, p, th, rng.New(seed))
		past := false
		for w := 0; s.Remaining() > 0; w = (w + 1) % p {
			// A poll with at most th tasks left switches.
			past = past || s.Remaining() <= th
			s.Next(w)
			if !past {
				continue
			}
			for v := range d.dyn {
				if !reflect.DeepEqual(d.dyn[v], dynState{}) {
					t.Fatalf("seed %d: worker %d keeps its phase-1 state after the switch", seed, v)
				}
			}
			want := d.Append(nil)
			for range p {
				want = core.AppendBool(want, false)
			}
			want = binary.AppendUvarint(core.AppendBool(want, true), uint64(s.Phase1Tasks()))
			// The pool follows: each unprocessed task once.
			poolBytes := 0
			d.Processed.ForEachClear(func(t int) { poolBytes += len(binary.AppendUvarint(nil, uint64(t))) })
			if got := s.AppendState(nil); !bytes.HasPrefix(got, want) || len(got) != len(want)+poolBytes {
				t.Fatalf("seed %d: switched state does not write every worker absent", seed)
			}
		}
		if past {
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
