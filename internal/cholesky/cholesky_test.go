package cholesky

import (
	"math"
	"testing"

	"hetsched/internal/dag"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

func TestTaskCount(t *testing.T) {
	// n=1: 1 POTRF. n=2: 2 POTRF + 1 TRSM + 1 SYRK = 4.
	// n=3: 3 + 3 + (3 + 1) = 10.
	for _, c := range []struct{ n, want int }{{1, 1}, {2, 4}, {3, 10}} {
		if got := Kernel.Tasks(c.n); got != c.want {
			t.Fatalf("Kernel.Tasks(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestCostsAndBounds(t *testing.T) {
	if c := cost(dag.Task{Kind: update, I: 2, J: 1, K: 0}); c != 2 {
		t.Fatalf("GEMM cost %g, want 2", c)
	}
	if c := cost(dag.Task{Kind: update, I: 1, J: 1, K: 0}); c != 1 {
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
	if got := Kernel.TotalWork(n); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Kernel.TotalWork(%d) = %g, want %g", n, got, want)
	}
	// Critical path: n−1 full POTRF+TRSM+SYRK stages plus the last
	// POTRF.
	if got, want := Kernel.CriticalPath(3), (1.0/3+1+1)*2+1.0/3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Kernel.CriticalPath(3) = %g, want %g", got, want)
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
// checks every task's prerequisites completed before it.
func TestScheduleRespectsDependencies(t *testing.T) {
	root := rng.New(2)
	const n, p = 10, 5
	s := speeds.UniformRange(p, 10, 100, root.Split())
	for _, pol := range allPolicies() {
		m := simulate(n, pol, s, root.Split())
		potrfDone := make([]bool, n)
		trsmDone := make([]bool, n*n)
		updates := make([]int, n*n)
		for _, ct := range m.Schedule {
			task := dag.DecodeTask(ct, n)
			switch task.Kind {
			case potrf:
				if updates[task.K*n+task.K] != task.K {
					t.Fatalf("%v: %s ran with %d/%d updates", pol, format(task), updates[task.K*n+task.K], task.K)
				}
				potrfDone[task.K] = true
			case trsm:
				if !potrfDone[task.K] {
					t.Fatalf("%v: %s before POTRF(%d)", pol, format(task), task.K)
				}
				if updates[task.I*n+task.K] != task.K {
					t.Fatalf("%v: %s ran with %d/%d updates", pol, format(task), updates[task.I*n+task.K], task.K)
				}
				trsmDone[task.I*n+task.K] = true
			case update:
				if !trsmDone[task.I*n+task.K] || !trsmDone[task.J*n+task.K] {
					t.Fatalf("%v: %s before its TRSMs", pol, format(task))
				}
				updates[task.I*n+task.J]++
			}
		}
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
