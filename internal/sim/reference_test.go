package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/matmul"
	"hetsched/internal/outer"
	"hetsched/internal/rng"
	"hetsched/internal/speeds"
)

// referenceRun is a deliberately naive re-implementation of the
// demand-driven simulation semantics: instead of an event heap it
// scans all processors for the earliest idle one at every step. It
// exists only to cross-validate the production engine.
func referenceRun(sched core.Scheduler, model speeds.Model) *Metrics {
	p := sched.P()
	m := &Metrics{
		BlocksPer:   make([]int, p),
		TasksPer:    make([]int, p),
		FinishPer:   make([]float64, p),
		Phase1Tasks: -1,
	}
	idleAt := make([]float64, p)
	arrival := make([]uint64, p) // FIFO tie-break, mirroring the heap's seq
	var stamp uint64
	for w := range arrival {
		arrival[w] = stamp
		stamp++
	}
	retired := make([]bool, p)
	for {
		// Earliest idle processor, FIFO among ties.
		w := -1
		for k := 0; k < p; k++ {
			if retired[k] {
				continue
			}
			if w < 0 || idleAt[k] < idleAt[w] ||
				(idleAt[k] == idleAt[w] && arrival[k] < arrival[w]) {
				w = k
			}
		}
		if w < 0 {
			break
		}
		if sched.Remaining() == 0 {
			retired[w] = true
			continue
		}
		a, ok := sched.Next(w)
		if !ok {
			retired[w] = true
			continue
		}
		m.Requests++
		m.Blocks += a.Blocks
		m.BlocksPer[w] += a.Blocks
		m.TasksPer[w] += len(a.Tasks)
		t := idleAt[w]
		for range a.Tasks {
			t += 1 / model.Speed(w)
			model.OnTaskDone(w)
		}
		if len(a.Tasks) > 0 {
			m.FinishPer[w] = t
			if t > m.Makespan {
				m.Makespan = t
			}
		}
		idleAt[w] = t
		arrival[w] = stamp
		stamp++
	}
	if po, ok := sched.(core.PhaseObserver); ok {
		m.Phase1Tasks = po.Phase1Tasks()
	}
	return m
}

// flatStrategies builds each of the eight flat strategies of the paper
// on an n-block instance for p workers.
var flatStrategies = []struct {
	name  string
	build func(n, p int, r *rng.PCG) core.Scheduler
}{
	{"outer-random", func(n, p int, r *rng.PCG) core.Scheduler { return outer.NewRandom(n, p, r) }},
	{"outer-sorted", func(n, p int, r *rng.PCG) core.Scheduler { return outer.NewSorted(n, p, r) }},
	{"outer-dynamic", func(n, p int, r *rng.PCG) core.Scheduler { return outer.NewDynamic(n, p, r) }},
	{"outer-2phases", func(n, p int, r *rng.PCG) core.Scheduler {
		return outer.NewTwoPhases(n, p, outer.ThresholdFromBeta(4, n), r)
	}},
	{"matmul-random", func(n, p int, r *rng.PCG) core.Scheduler { return matmul.NewRandom(n, p, r) }},
	{"matmul-sorted", func(n, p int, r *rng.PCG) core.Scheduler { return matmul.NewSorted(n, p, r) }},
	{"matmul-dynamic", func(n, p int, r *rng.PCG) core.Scheduler { return matmul.NewDynamic(n, p, r) }},
	{"matmul-2phases", func(n, p int, r *rng.PCG) core.Scheduler {
		return matmul.NewTwoPhases(n, p, matmul.ThresholdFromBeta(3, n), r)
	}},
}

// TestEngineMatchesReference cross-validates the heap-based engine
// against the naive scan-based reference on identical scheduler
// streams, for every flat strategy on fixed and drifting speeds: every
// field of Metrics — the ledger, FinishPer, Makespan, Requests and
// Phase1Tasks — must agree exactly.
func TestEngineMatchesReference(t *testing.T) {
	for _, st := range flatStrategies {
		for _, drift := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/drift=%v", st.name, drift), func(t *testing.T) {
				for seed := uint64(0); seed < 8; seed++ {
					p := 2 + int(seed)%6
					n := 4 + int(seed*3)%13
					if strings.HasPrefix(st.name, "outer") {
						n *= 2
					}
					model := func() speeds.Model {
						root := rng.New(seed)
						s := speeds.UniformRange(p, 10, 100, root.Split())
						if drift {
							return speeds.NewDrift(s, 0.2, root.Split())
						}
						return speeds.NewFixed(s)
					}
					fast := Run(st.build(n, p, rng.New(100+seed)), model())
					slow := referenceRun(st.build(n, p, rng.New(100+seed)), model())
					if !reflect.DeepEqual(fast, slow) {
						t.Fatalf("seed %d n=%d p=%d: engine %+v\nreference %+v", seed, n, p, fast, slow)
					}
				}
			})
		}
	}
}

// TestEngineMatchesReferenceRandomStrategy repeats the check with the
// single-task random strategy, whose request pattern differs (many
// small assignments).
func TestEngineMatchesReferenceRandomStrategy(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		root := rng.New(200 + seed)
		const p, n = 5, 20
		s := speeds.UniformRange(p, 10, 100, root.Split())
		fast := Run(outer.NewRandom(n, p, rng.New(300+seed)), speeds.NewFixed(s))
		slow := referenceRun(outer.NewRandom(n, p, rng.New(300+seed)), speeds.NewFixed(s))
		if fast.Blocks != slow.Blocks || fast.Makespan != slow.Makespan {
			t.Fatalf("seed %d: engine and reference diverge", seed)
		}
	}
}

// refDriverMetrics and refRunDriver are sim.RunDriver as it stood before
// Run, RunObserved and RunDriver became one loop over core.Master, kept
// verbatim as the reference TestRunDriverMatchesReference compares the
// loop against.
type refDriverMetrics struct {
	Blocks    int
	BlocksPer []int
	TasksPer  []int
	Makespan  float64
	WaitTime  float64
	Requests  int
	Schedule  []core.Task
}

type refCompletionEvent struct {
	t     float64
	proc  int
	seq   uint64
	tasks []core.Task
}

func (e refCompletionEvent) before(o refCompletionEvent) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

func refRunDriver(drv core.Driver, model speeds.Model) *refDriverMetrics {
	p := drv.P()
	if p != model.P() {
		panic(fmt.Sprintf("sim: driver has %d workers, model %d", p, model.P()))
	}
	m := &refDriverMetrics{
		BlocksPer: make([]int, p),
		TasksPer:  make([]int, p),
		Schedule:  make([]core.Task, 0, drv.Total()),
	}

	bufs := make([]core.TaskBuf, p)
	coster, costed := drv.(core.TaskCoster)

	q := eventHeap[refCompletionEvent]{ev: make([]refCompletionEvent, 0, p)}
	var seq uint64
	idleSince := make([]float64, p)
	waiting := make([]bool, p)

	// assign gives worker w a batch at time now if possible, pushing
	// its completion event.
	assign := func(w int, now float64) bool {
		a, ok := drv.NextInto(w, bufs[w])
		if ok {
			bufs[w] = a.Tasks // retain grown capacity
		}
		if !ok {
			return false
		}
		m.Requests++
		m.Blocks += a.Blocks
		m.BlocksPer[w] += a.Blocks
		m.TasksPer[w] += len(a.Tasks)
		if waiting[w] {
			m.WaitTime += now - idleSince[w]
			waiting[w] = false
		}
		t := now
		for _, task := range a.Tasks {
			s := model.Speed(w)
			if s <= 0 {
				panic("sim: non-positive speed")
			}
			cost := 1.0
			if costed {
				cost = coster.TaskCost(task)
			}
			t += cost / s
			model.OnTaskDone(w)
		}
		q.push(refCompletionEvent{t: t, proc: w, seq: seq, tasks: a.Tasks})
		seq++
		return true
	}

	for w := 0; w < p; w++ {
		if !assign(w, 0) {
			waiting[w] = true
			idleSince[w] = 0
		}
	}

	for q.len() > 0 {
		e := q.pop()
		if len(e.tasks) > 0 {
			m.Schedule = append(m.Schedule, e.tasks...)
			drv.Complete(e.proc, e.tasks)
			if e.t > m.Makespan {
				m.Makespan = e.t
			}
		}

		// The finishing worker requests first, then any waiting worker
		// re-tries (new tasks may have become ready or unblocked).
		if !assign(e.proc, e.t) {
			waiting[e.proc] = true
			idleSince[e.proc] = e.t
		}
		for w := 0; w < p; w++ {
			if waiting[w] {
				_ = assign(w, e.t)
			}
		}
	}

	if drv.Remaining() != 0 {
		panic(fmt.Sprintf("sim: driver run ended with %d of %d tasks unfinished",
			drv.Remaining(), drv.Total()))
	}
	return m
}
