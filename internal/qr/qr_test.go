package qr

import (
	"math"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

func TestTaskCount(t *testing.T) {
	// n=1: 1 GEQRT. n=2: 2 GEQRT + 1 TSQRT + 1 ORMQR + 1 TSMQR = 5.
	// n=3: 3 + 3 + 3 + (4+1) = 14.
	for _, c := range []struct{ n, want int }{{1, 1}, {2, 5}, {3, 14}} {
		if got := TaskCount(c.n); got != c.want {
			t.Fatalf("TaskCount(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestWorkAndCriticalPath(t *testing.T) {
	// n=2: 2·(4/3) + 2 + 2 + 4 = 32/3.
	if got, want := TotalWork(2), 32.0/3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("TotalWork(2) = %g, want %g", got, want)
	}
	// n=2 critical path: GEQRT + TSQRT + TSMQR + GEQRT.
	if got, want := CriticalPath(2), 4.0/3+2+4+4.0/3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("CriticalPath(2) = %g, want %g", got, want)
	}
	// TotalWork must equal the sum over the enumerated task set.
	n := 5
	want := 0.0
	for k := 0; k < n; k++ {
		want += Task{Kind: Geqrt, K: k}.Cost()
		for i := k + 1; i < n; i++ {
			want += Task{Kind: Tsqrt, I: i, K: k}.Cost()
			want += Task{Kind: Ormqr, K: k, J: i}.Cost()
			for j := k + 1; j < n; j++ {
				want += Task{Kind: Tsmqr, I: i, J: j, K: k}.Cost()
			}
		}
	}
	if got := TotalWork(n); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TotalWork(%d) = %g, want %g", n, got, want)
	}
}

func allPolicies() []dag.Policy {
	return []dag.Policy{dag.RandomReady, dag.LocalityReady, dag.CriticalPathReady}
}

// simulate runs an n-tile factorization on fixed speeds s under the
// generic engine and returns the run with its Σcost/Σspeed and
// critical-path/max-speed lower bounds on the makespan.
func simulate(n int, pol dag.Policy, s []float64, r *rng.PCG) (m *sim.Metrics, work, cp float64) {
	m = sim.RunDriver(dag.NewDriver(NewKernel(n), len(s), pol, r), speeds.NewFixed(s))
	sum, max := 0.0, 0.0
	for _, v := range s {
		sum += v
		max = math.Max(max, v)
	}
	return m, TotalWork(n) / sum, CriticalPath(n) / max
}

func decode(ct core.Task, n int) Task { return fromDAG(dag.DecodeTask(ct, n)) }

func TestSimulateCompletesAllTasks(t *testing.T) {
	root := rng.New(1)
	const n, p = 8, 4
	s := speeds.UniformRange(p, 10, 100, root.Split())
	for _, pol := range allPolicies() {
		m, work, cp := simulate(n, pol, s, root.Split())
		if len(m.Schedule) != TaskCount(n) {
			t.Fatalf("%v: %d tasks, want %d", pol, len(m.Schedule), TaskCount(n))
		}
		total := 0
		for _, v := range m.TasksPer {
			total += v
		}
		if total != TaskCount(n) {
			t.Fatalf("%v: per-worker tasks sum %d", pol, total)
		}
		if m.Makespan < work-1e-9 || m.Makespan < cp-1e-9 {
			t.Fatalf("%v: makespan %g below bounds (%g, %g)", pol, m.Makespan, work, cp)
		}
		if eff := work / m.Makespan; eff <= 0 || eff > 1 {
			t.Fatalf("%v: efficiency %g", pol, eff)
		}
	}
}

// TestScheduleRespectsDependencies replays the completion order and
// checks every task's preconditions held when it completed.
func TestScheduleRespectsDependencies(t *testing.T) {
	root := rng.New(2)
	const n, p = 9, 5
	s := speeds.UniformRange(p, 10, 100, root.Split())
	for _, pol := range allPolicies() {
		m, _, _ := simulate(n, pol, s, root.Split())
		geqrt := make([]bool, n)
		tsqrt := make([]bool, n*n)
		ormqr := make([]bool, n*n)
		updates := make([]int, n*n)
		for _, ct := range m.Schedule {
			task := decode(ct, n)
			switch task.Kind {
			case Geqrt:
				if updates[task.K*n+task.K] != task.K {
					t.Fatalf("%v: %s with %d/%d updates", pol, task, updates[task.K*n+task.K], task.K)
				}
				geqrt[task.K] = true
			case Ormqr:
				if !geqrt[task.K] || updates[task.K*n+task.J] != task.K {
					t.Fatalf("%v: %s premature", pol, task)
				}
				ormqr[task.K*n+task.J] = true
			case Tsqrt:
				if updates[task.I*n+task.K] != task.K {
					t.Fatalf("%v: %s with missing updates", pol, task)
				}
				if task.I == task.K+1 && !geqrt[task.K] {
					t.Fatalf("%v: %s before GEQRT(%d)", pol, task, task.K)
				}
				if task.I > task.K+1 && !tsqrt[(task.I-1)*n+task.K] {
					t.Fatalf("%v: %s before its chain predecessor", pol, task)
				}
				tsqrt[task.I*n+task.K] = true
			case Tsmqr:
				if !tsqrt[task.I*n+task.K] {
					t.Fatalf("%v: %s before TSQRT(%d,%d)", pol, task, task.I, task.K)
				}
				if updates[task.I*n+task.J] != task.K {
					t.Fatalf("%v: %s with %d/%d updates", pol, task, updates[task.I*n+task.J], task.K)
				}
				if task.I == task.K+1 {
					if !ormqr[task.K*n+task.J] {
						t.Fatalf("%v: %s before ORMQR(%d,%d)", pol, task, task.K, task.J)
					}
				} else if updates[(task.I-1)*n+task.J] <= task.K {
					t.Fatalf("%v: %s before its chain predecessor", pol, task)
				}
				updates[task.I*n+task.J]++
			}
		}
		// Every tile below, on and above the diagonal must have
		// received exactly its min(i,j) updates.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := i
				if j < i {
					want = j
				}
				if updates[i*n+j] != want {
					t.Fatalf("%v: tile (%d,%d) got %d updates, want %d", pol, i, j, updates[i*n+j], want)
				}
			}
		}
	}
}

func TestLocalityReducesComm(t *testing.T) {
	root := rng.New(4)
	const n, p = 12, 6
	s := speeds.UniformRange(p, 10, 100, root.Split())
	rnd, _, _ := simulate(n, dag.RandomReady, s, root.Split())
	loc, _, _ := simulate(n, dag.LocalityReady, s, root.Split())
	if loc.Blocks >= rnd.Blocks {
		t.Fatalf("LocalityReady shipped %d, RandomReady %d", loc.Blocks, rnd.Blocks)
	}
}

// TestDeterminism is the acceptance check for the new workload: equal
// seeds ⇒ bit-identical communication volume (and makespan and
// schedule), for every policy.
func TestDeterminism(t *testing.T) {
	const n, p = 10, 4
	for _, pol := range allPolicies() {
		type out struct {
			blocks int
			mk     float64
			sched  []core.Task
		}
		run := func() out {
			root := rng.New(9)
			s := speeds.UniformRange(p, 10, 100, root.Split())
			m, _, _ := simulate(n, pol, s, root.Split())
			return out{m.Blocks, m.Makespan, m.Schedule}
		}
		a, b := run(), run()
		if a.blocks != b.blocks || a.mk != b.mk {
			t.Fatalf("%v: non-deterministic: (%d,%g) vs (%d,%g)", pol, a.blocks, a.mk, b.blocks, b.mk)
		}
		for i := range a.sched {
			if a.sched[i] != b.sched[i] {
				t.Fatalf("%v: schedules diverge at %d: %s vs %s", pol, i, decode(a.sched[i], n), decode(b.sched[i], n))
			}
		}
	}
}

func TestSingleTile(t *testing.T) {
	m, _, _ := simulate(1, dag.RandomReady, []float64{5}, rng.New(5))
	if len(m.Schedule) != 1 || decode(m.Schedule[0], 1).Kind != Geqrt {
		t.Fatalf("n=1 schedule = %v", m.Schedule)
	}
}

func TestValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"n=0":     func() { NewKernel(0) },
		"nil rng": func() { simulate(2, dag.RandomReady, []float64{1}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
