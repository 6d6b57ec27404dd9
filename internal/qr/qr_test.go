package qr

import (
	"math"
	"testing"

	"hetsched/internal/dag"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

func TestTaskCount(t *testing.T) {
	// n=1: 1 GEQRT. n=2: 2 GEQRT + 1 TSQRT + 1 ORMQR + 1 TSMQR = 5.
	// n=3: 3 + 3 + 3 + (4+1) = 14.
	for _, c := range []struct{ n, want int }{{1, 1}, {2, 5}, {3, 14}} {
		if got := Kernel.Tasks(c.n); got != c.want {
			t.Fatalf("Kernel.Tasks(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestWorkAndCriticalPath(t *testing.T) {
	// n=2: 2·(4/3) + 2 + 2 + 4 = 32/3.
	if got, want := Kernel.TotalWork(2), 32.0/3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Kernel.TotalWork(2) = %g, want %g", got, want)
	}
	// n=2 critical path: GEQRT + TSQRT + TSMQR + GEQRT.
	if got, want := Kernel.CriticalPath(2), 4.0/3+2+4+4.0/3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Kernel.CriticalPath(2) = %g, want %g", got, want)
	}
	// TotalWork must equal the sum over the enumerated task set.
	n := 5
	want := 0.0
	for k := 0; k < n; k++ {
		want += cost(dag.Task{Kind: geqrt, K: k})
		for i := k + 1; i < n; i++ {
			want += cost(dag.Task{Kind: tsqrt, I: i, K: k})
			want += cost(dag.Task{Kind: ormqr, K: k, J: i})
			for j := k + 1; j < n; j++ {
				want += cost(dag.Task{Kind: tsmqr, I: i, J: j, K: k})
			}
		}
	}
	if got := Kernel.TotalWork(n); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Kernel.TotalWork(%d) = %g, want %g", n, got, want)
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

// TestScheduleRespectsDependencies replays the completion order and
// checks every task's preconditions held when it completed.
func TestScheduleRespectsDependencies(t *testing.T) {
	root := rng.New(2)
	const n, p = 9, 5
	s := speeds.UniformRange(p, 10, 100, root.Split())
	for _, pol := range allPolicies() {
		m := simulate(n, pol, s, root.Split())
		geqrtDone := make([]bool, n)
		tsqrtDone := make([]bool, n*n)
		ormqrDone := make([]bool, n*n)
		updates := make([]int, n*n)
		for _, ct := range m.Schedule {
			task := dag.DecodeTask(ct, n)
			switch task.Kind {
			case geqrt:
				if updates[task.K*n+task.K] != task.K {
					t.Fatalf("%v: %s with %d/%d updates", pol, format(task), updates[task.K*n+task.K], task.K)
				}
				geqrtDone[task.K] = true
			case ormqr:
				if !geqrtDone[task.K] || updates[task.K*n+task.J] != task.K {
					t.Fatalf("%v: %s premature", pol, format(task))
				}
				ormqrDone[task.K*n+task.J] = true
			case tsqrt:
				if updates[task.I*n+task.K] != task.K {
					t.Fatalf("%v: %s with missing updates", pol, format(task))
				}
				if task.I == task.K+1 && !geqrtDone[task.K] {
					t.Fatalf("%v: %s before GEQRT(%d)", pol, format(task), task.K)
				}
				if task.I > task.K+1 && !tsqrtDone[(task.I-1)*n+task.K] {
					t.Fatalf("%v: %s before its chain predecessor", pol, format(task))
				}
				tsqrtDone[task.I*n+task.K] = true
			case tsmqr:
				if !tsqrtDone[task.I*n+task.K] {
					t.Fatalf("%v: %s before TSQRT(%d,%d)", pol, format(task), task.I, task.K)
				}
				if updates[task.I*n+task.J] != task.K {
					t.Fatalf("%v: %s with %d/%d updates", pol, format(task), updates[task.I*n+task.J], task.K)
				}
				if task.I == task.K+1 {
					if !ormqrDone[task.K*n+task.J] {
						t.Fatalf("%v: %s before ORMQR(%d,%d)", pol, format(task), task.K, task.J)
					}
				} else if updates[(task.I-1)*n+task.J] <= task.K {
					t.Fatalf("%v: %s before its chain predecessor", pol, format(task))
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

func TestValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"n=0":     func() { dag.NewDriver(Kernel, 0, 2, dag.RandomReady, rng.New(1)) },
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
