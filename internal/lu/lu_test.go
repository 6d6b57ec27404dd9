package lu

import (
	"math"
	"testing"

	"hetsched/internal/dag"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

func TestTaskCount(t *testing.T) {
	// n=1: 1 GETRF. n=2: 2 + 2 + 1 = 5. n=3: 3 + 6 + (4+1) = 14.
	for _, c := range []struct{ n, want int }{{1, 1}, {2, 5}, {3, 14}} {
		if got := Kernel.Tasks(c.n); got != c.want {
			t.Fatalf("Kernel.Tasks(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestWorkAndCriticalPath(t *testing.T) {
	// n=2: work = 2·(2/3) + 2·1 + 1·2 = 16/3.
	if got, want := Kernel.TotalWork(2), 16.0/3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Kernel.TotalWork(2) = %g, want %g", got, want)
	}
	// n=2 critical path: GETRF + TRSM + GEMM + GETRF = 2/3+1+2+2/3.
	if got, want := Kernel.CriticalPath(2), 2.0/3+1+2+2.0/3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Kernel.CriticalPath(2) = %g, want %g", got, want)
	}
}

// simulate runs an n-tile factorization on fixed speeds s under the
// generic engine.
func simulate(n int, pol dag.Policy, s []float64, r *rng.PCG) *sim.Metrics {
	return sim.RunDriver(dag.NewDriver(Kernel, n, len(s), pol, r), speeds.NewFixed(s))
}

func allPolicies() []dag.Policy {
	return []dag.Policy{dag.RandomReady, dag.LocalityReady, dag.CriticalPathReady}
}

func TestScheduleRespectsDependencies(t *testing.T) {
	root := rng.New(2)
	const n, p = 10, 5
	s := speeds.UniformRange(p, 10, 100, root.Split())
	for _, pol := range allPolicies() {
		m := simulate(n, pol, s, root.Split())
		getrfDone := make([]bool, n)
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
			task := dag.DecodeTask(ct, n)
			switch task.Kind {
			case getrf:
				if gemms[task.K*n+task.K] != task.K {
					t.Fatalf("%v: %s with %d/%d updates", pol, format(task), gemms[task.K*n+task.K], task.K)
				}
				getrfDone[task.K] = true
			case trsmRow:
				if !getrfDone[task.K] || gemms[task.K*n+task.J] != task.K {
					t.Fatalf("%v: %s premature", pol, format(task))
				}
				rowDone[task.K*n+task.J] = true
			case trsmCol:
				if !getrfDone[task.K] || gemms[task.I*n+task.K] != task.K {
					t.Fatalf("%v: %s premature", pol, format(task))
				}
				colDone[task.I*n+task.K] = true
			case gemm:
				if !colDone[task.I*n+task.K] || !rowDone[task.K*n+task.J] {
					t.Fatalf("%v: %s before its TRSMs", pol, format(task))
				}
				// Trailing updates of a tile commute (each subtracts a
				// product of other tiles), so only the count matters —
				// and it must not exceed min(i, j).
				gemms[task.I*n+task.J]++
				if gemms[task.I*n+task.J] > min(task.I, task.J) {
					t.Fatalf("%v: %s exceeds the tile's update count", pol, format(task))
				}
			}
		}
	}
}

func TestValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"n=0":     func() { dag.NewDriver(Kernel, 0, 2, dag.RandomReady, rng.New(1)) },
		"p=0":     func() { dag.NewDriver(Kernel, 2, 0, dag.RandomReady, rng.New(1)) },
		"nil rng": func() { dag.NewDriver(Kernel, 2, 2, dag.RandomReady, nil) },
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
