package lu

import (
	"math"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/linalg"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

func TestTaskCount(t *testing.T) {
	// n=1: 1 GETRF. n=2: 2 + 2 + 1 = 5. n=3: 3 + 6 + (4+1) = 14.
	for _, c := range []struct{ n, want int }{{1, 1}, {2, 5}, {3, 14}} {
		if got := TaskCount(c.n); got != c.want {
			t.Fatalf("TaskCount(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestWorkAndCriticalPath(t *testing.T) {
	// n=2: work = 2·(2/3) + 2·1 + 1·2 = 16/3.
	if got, want := TotalWork(2), 16.0/3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("TotalWork(2) = %g, want %g", got, want)
	}
	// n=2 critical path: GETRF + TRSM + GEMM + GETRF = 2/3+1+2+2/3.
	if got, want := CriticalPath(2), 2.0/3+1+2+2.0/3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("CriticalPath(2) = %g, want %g", got, want)
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
		if m.Makespan < work-1e-9 || m.Makespan < cp-1e-9 {
			t.Fatalf("%v: makespan %g below bounds (%g, %g)", pol, m.Makespan, work, cp)
		}
		if eff := work / m.Makespan; eff <= 0 || eff > 1 {
			t.Fatalf("%v: efficiency %g", pol, eff)
		}
	}
}

func TestScheduleRespectsDependencies(t *testing.T) {
	root := rng.New(2)
	const n, p = 10, 5
	s := speeds.UniformRange(p, 10, 100, root.Split())
	for _, pol := range allPolicies() {
		m, _, _ := simulate(n, pol, s, root.Split())
		getrf := make([]bool, n)
		rowDone := make([]bool, n*n)
		colDone := make([]bool, n*n)
		gemms := make([]int, n*n)
		min := func(a, b int) int {
			if a < b {
				return a
			}
			return b
		}
		for _, ct := range m.Schedule {
			task := decode(ct, n)
			switch task.Kind {
			case Getrf:
				if gemms[task.K*n+task.K] != task.K {
					t.Fatalf("%v: %s with %d/%d updates", pol, task, gemms[task.K*n+task.K], task.K)
				}
				getrf[task.K] = true
			case TrsmRow:
				if !getrf[task.K] || gemms[task.K*n+task.J] != task.K {
					t.Fatalf("%v: %s premature", pol, task)
				}
				rowDone[task.K*n+task.J] = true
			case TrsmCol:
				if !getrf[task.K] || gemms[task.I*n+task.K] != task.K {
					t.Fatalf("%v: %s premature", pol, task)
				}
				colDone[task.I*n+task.K] = true
			case Gemm:
				if !colDone[task.I*n+task.K] || !rowDone[task.K*n+task.J] {
					t.Fatalf("%v: %s before its TRSMs", pol, task)
				}
				// Trailing updates of a tile commute (each subtracts a
				// product of other tiles), so only the count matters —
				// and it must not exceed min(i, j).
				gemms[task.I*n+task.J]++
				if gemms[task.I*n+task.J] > min(task.I, task.J) {
					t.Fatalf("%v: %s exceeds the tile's update count", pol, task)
				}
			}
		}
	}
}

func TestNumericReplay(t *testing.T) {
	root := rng.New(3)
	const n, l, p = 6, 4, 3
	a := linalg.NewBlockedMatrix(n, l)
	linalg.RandomDominant(a, root.Split())

	for _, pol := range allPolicies() {
		work := linalg.NewBlockedMatrix(n, l)
		for i, blk := range a.Blocks {
			copy(work.Blocks[i].Data, blk.Data)
		}
		s := speeds.UniformRange(p, 10, 100, root.Split())
		m, _, _ := simulate(n, pol, s, root.Split())
		if err := Replay(m.Schedule, work); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res := linalg.LUResidual(a, work); res > 1e-8 {
			t.Fatalf("%v: |A − L·U| = %g", pol, res)
		}
	}
}

func TestLocalityReducesComm(t *testing.T) {
	root := rng.New(4)
	const n, p = 14, 6
	s := speeds.UniformRange(p, 10, 100, root.Split())
	rnd, _, _ := simulate(n, dag.RandomReady, s, root.Split())
	loc, _, _ := simulate(n, dag.LocalityReady, s, root.Split())
	if loc.Blocks >= rnd.Blocks {
		t.Fatalf("LocalityReady shipped %d, RandomReady %d", loc.Blocks, rnd.Blocks)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, float64) {
		root := rng.New(9)
		s := speeds.UniformRange(4, 10, 100, root.Split())
		m, _, _ := simulate(10, dag.CriticalPathReady, s, root.Split())
		return m.Blocks, m.Makespan
	}
	b1, mk1 := run()
	b2, mk2 := run()
	if b1 != b2 || mk1 != mk2 {
		t.Fatalf("non-deterministic: (%d,%g) vs (%d,%g)", b1, mk1, b2, mk2)
	}
}

func TestSingleTile(t *testing.T) {
	m, _, _ := simulate(1, dag.RandomReady, []float64{5}, rng.New(5))
	if len(m.Schedule) != 1 || decode(m.Schedule[0], 1).Kind != Getrf {
		t.Fatalf("n=1 schedule = %v", m.Schedule)
	}
}

func TestReplayRejectsBadSchedule(t *testing.T) {
	m := linalg.NewBlockedMatrix(3, 2)
	if err := Replay([]core.Task{0}, m); err == nil {
		t.Fatal("short schedule not rejected")
	}
}

func TestValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"n=0":     func() { dag.NewDriver(NewKernel(0), 2, dag.RandomReady, rng.New(1)) },
		"p=0":     func() { dag.NewDriver(NewKernel(2), 0, dag.RandomReady, rng.New(1)) },
		"nil rng": func() { dag.NewDriver(NewKernel(2), 2, dag.RandomReady, nil) },
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
