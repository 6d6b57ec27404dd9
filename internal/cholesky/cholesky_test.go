package cholesky

import (
	"math"
	"slices"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/linalg"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

func TestTaskCount(t *testing.T) {
	// n=1: 1 POTRF. n=2: 2 POTRF + 1 TRSM + 1 SYRK = 4.
	// n=3: 3 + 3 + (3 + 1) = 10.
	for _, c := range []struct{ n, want int }{{1, 1}, {2, 4}, {3, 10}} {
		if got := TaskCount(c.n); got != c.want {
			t.Fatalf("TaskCount(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestCostsAndBounds(t *testing.T) {
	if c := (Task{Kind: Update, I: 2, J: 1, K: 0}).Cost(); c != 2 {
		t.Fatalf("GEMM cost %g, want 2", c)
	}
	if c := (Task{Kind: Update, I: 1, J: 1, K: 0}).Cost(); c != 1 {
		t.Fatalf("SYRK cost %g, want 1", c)
	}
	// Total work must equal the sum of all task costs (cross-check via
	// enumeration identity): n=4.
	n := 4
	want := 0.0
	want += float64(n) * (1.0 / 3) // POTRFs
	want += float64(n*(n-1)/2) * 1 // TRSMs
	for k := 0; k < n; k++ {       // updates
		for i := k + 1; i < n; i++ {
			for j := k + 1; j <= i; j++ {
				if i == j {
					want++
				} else {
					want += 2
				}
			}
		}
	}
	if got := TotalWork(n); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TotalWork(%d) = %g, want %g", n, got, want)
	}
	// Critical path: n−1 full POTRF+TRSM+SYRK stages plus the last
	// POTRF.
	if got, want := CriticalPath(3), (1.0/3+1+1)*2+1.0/3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("CriticalPath(3) = %g, want %g", got, want)
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
			t.Fatalf("%v: %d tasks completed, want %d", pol, len(m.Schedule), TaskCount(n))
		}
		total := 0
		for _, v := range m.TasksPer {
			total += v
		}
		if total != TaskCount(n) {
			t.Fatalf("%v: per-worker tasks sum %d", pol, total)
		}
		if m.Makespan < work-1e-9 {
			t.Fatalf("%v: makespan %g below work bound %g", pol, m.Makespan, work)
		}
		if m.Makespan < cp-1e-9 {
			t.Fatalf("%v: makespan %g below critical-path bound %g", pol, m.Makespan, cp)
		}
		if eff := work / m.Makespan; eff <= 0 || eff > 1 {
			t.Fatalf("%v: efficiency %g out of (0,1]", pol, eff)
		}
	}
}

// TestScheduleRespectsDependencies replays the completion order and
// checks every task's prerequisites completed before it.
func TestScheduleRespectsDependencies(t *testing.T) {
	root := rng.New(2)
	const n, p = 10, 5
	s := speeds.UniformRange(p, 10, 100, root.Split())
	for _, pol := range allPolicies() {
		m, _, _ := simulate(n, pol, s, root.Split())
		potrfDone := make([]bool, n)
		trsmDone := make([]bool, n*n)
		updates := make([]int, n*n)
		for _, ct := range m.Schedule {
			task := decode(ct, n)
			switch task.Kind {
			case Potrf:
				if updates[task.K*n+task.K] != task.K {
					t.Fatalf("%v: %s ran with %d/%d updates", pol, task, updates[task.K*n+task.K], task.K)
				}
				potrfDone[task.K] = true
			case Trsm:
				if !potrfDone[task.K] {
					t.Fatalf("%v: %s before POTRF(%d)", pol, task, task.K)
				}
				if updates[task.I*n+task.K] != task.K {
					t.Fatalf("%v: %s ran with %d/%d updates", pol, task, updates[task.I*n+task.K], task.K)
				}
				trsmDone[task.I*n+task.K] = true
			case Update:
				if !trsmDone[task.I*n+task.K] || !trsmDone[task.J*n+task.K] {
					t.Fatalf("%v: %s before its TRSMs", pol, task)
				}
				updates[task.I*n+task.J]++
			}
		}
	}
}

// TestNumericReplay is the end-to-end verification: simulate, replay
// the schedule on a real SPD matrix, check A = L·Lᵀ.
func TestNumericReplay(t *testing.T) {
	root := rng.New(3)
	const n, l, p = 5, 4, 3
	a := linalg.NewBlockedMatrix(n, l)
	linalg.RandomSPD(a, root.Split())

	for _, pol := range allPolicies() {
		work := linalg.NewBlockedMatrix(n, l)
		for i, blk := range a.Blocks {
			copy(work.Blocks[i].Data, blk.Data)
		}
		s := speeds.UniformRange(p, 10, 100, root.Split())
		m, _, _ := simulate(n, pol, s, root.Split())
		if err := Replay(m.Schedule, work); err != nil {
			t.Fatalf("%v: replay: %v", pol, err)
		}
		if res := linalg.CholeskyResidual(a, work); res > 1e-8 {
			t.Fatalf("%v: |A − L·Lᵀ| = %g", pol, res)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if slices.ContainsFunc(work.Block(i, j).Data, func(v float64) bool { return v != 0 }) {
					t.Fatalf("%v: upper tile (%d,%d) not cleared", pol, i, j)
				}
			}
		}
	}
}

func TestLocalityReducesComm(t *testing.T) {
	root := rng.New(4)
	const n, p = 16, 6
	s := speeds.UniformRange(p, 10, 100, root.Split())
	rnd, _, _ := simulate(n, dag.RandomReady, s, root.Split())
	loc, _, _ := simulate(n, dag.LocalityReady, s, root.Split())
	if loc.Blocks >= rnd.Blocks {
		t.Fatalf("LocalityReady shipped %d blocks, RandomReady %d; expected locality to win",
			loc.Blocks, rnd.Blocks)
	}
}

func TestDeterminism(t *testing.T) {
	const n, p = 12, 4
	run := func() (int, float64) {
		root := rng.New(9)
		s := speeds.UniformRange(p, 10, 100, root.Split())
		m, _, _ := simulate(n, dag.LocalityReady, s, root.Split())
		return m.Blocks, m.Makespan
	}
	b1, mk1 := run()
	b2, mk2 := run()
	if b1 != b2 || mk1 != mk2 {
		t.Fatalf("non-deterministic: (%d, %g) vs (%d, %g)", b1, mk1, b2, mk2)
	}
}

func TestSingleTile(t *testing.T) {
	root := rng.New(5)
	m, _, _ := simulate(1, dag.RandomReady, []float64{10}, root)
	if len(m.Schedule) != 1 || decode(m.Schedule[0], 1).Kind != Potrf {
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
		"n=0":     func() { simulate(0, dag.RandomReady, []float64{1}, rng.New(1)) },
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
