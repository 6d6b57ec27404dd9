package matmul

import (
	"testing"
	"testing/quick"

	"hetsched/internal/core"
	"hetsched/internal/flat"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

func TestTaskIDRoundTrip(t *testing.T) {
	f := func(iRaw, jRaw, kRaw, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		i, j, k := int(iRaw)%n, int(jRaw)%n, int(kRaw)%n
		gi, gj, gk := Decode(TaskID(i, j, k, n), n)
		return gi == i && gj == j && gk == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func drain(t *testing.T, s core.Scheduler, check func(w int, a core.Assignment)) (tasks, blocks int) {
	t.Helper()
	p := s.P()
	stuck := 0
	for w := 0; s.Remaining() > 0; w = (w + 1) % p {
		a, ok := s.Next(w)
		if !ok {
			stuck++
			if stuck > p {
				t.Fatalf("%s: no worker can make progress with %d tasks remaining", s.Name(), s.Remaining())
			}
			continue
		}
		stuck = 0
		tasks += len(a.Tasks)
		blocks += a.Blocks
		if check != nil {
			check(w, a)
		}
	}
	if _, ok := s.Next(0); ok {
		t.Fatalf("%s: Next succeeded on a drained scheduler", s.Name())
	}
	return tasks, blocks
}

func builders(n, p int) map[string]func(r *rng.PCG) core.Scheduler {
	return map[string]func(r *rng.PCG) core.Scheduler{
		"RandomMatrix":  func(r *rng.PCG) core.Scheduler { return flat.NewRandom(Kernel, n, p, r) },
		"SortedMatrix":  func(r *rng.PCG) core.Scheduler { return flat.NewSorted(Kernel, n, p, r) },
		"DynamicMatrix": func(r *rng.PCG) core.Scheduler { return NewDynamic(n, p, r) },
		"DynamicMatrix2Phases": func(r *rng.PCG) core.Scheduler {
			return flat.NewTwoPhases(Kernel, n, p, Kernel.ThresholdFromBeta(3, n), r)
		},
	}
}

func TestDynamicStepBlockAccounting(t *testing.T) {
	// While all three pools are non-empty, step y of a worker must
	// ship exactly 3·(2y+1) blocks (Algorithm 3's invariant).
	const n, p = 15, 3
	s := NewDynamic(n, p, rng.New(11))
	steps := make([]int, p)
	drain(t, s, func(w int, a core.Assignment) {
		y := steps[w]
		if y < n { // all pools non-empty until a worker exhausts them
			if want := 3 * (2*y + 1); a.Blocks != want {
				t.Fatalf("DynamicMatrix step %d of worker %d shipped %d blocks, want %d",
					y, w, a.Blocks, want)
			}
		}
		steps[w]++
	})
}

func TestDynamicOwnershipIsCrossProduct(t *testing.T) {
	// After a full Dynamic run, each worker's recorded per-block
	// ownership must be exactly I×K, K×J and I×J.
	const n, p = 12, 4
	s := NewDynamic(n, p, rng.New(17))
	drain(t, s, nil)
	for w := 0; w < p; w++ {
		st := &s.dyn[w]
		inI := make([]bool, n)
		inJ := make([]bool, n)
		inK := make([]bool, n)
		for _, i := range st.iKnown {
			inI[i] = true
		}
		for _, j := range st.jKnown {
			inJ[j] = true
		}
		for _, k := range st.kKnown {
			inK[k] = true
		}
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				if s.Own[0][w].Test(r*n+c) != (inI[r] && inK[c]) {
					t.Fatalf("worker %d A ownership (%d,%d) disagrees with I×K", w, r, c)
				}
				if s.Own[1][w].Test(r*n+c) != (inK[r] && inJ[c]) {
					t.Fatalf("worker %d B ownership (%d,%d) disagrees with K×J", w, r, c)
				}
				if s.Own[2][w].Test(r*n+c) != (inI[r] && inJ[c]) {
					t.Fatalf("worker %d C ownership (%d,%d) disagrees with I×J", w, r, c)
				}
			}
		}
	}
}

func TestRandomBlocksPerTask(t *testing.T) {
	const n, p = 10, 3
	s := flat.NewRandom(Kernel, n, p, rng.New(2))
	drain(t, s, func(_ int, a core.Assignment) {
		if len(a.Tasks) != 1 {
			t.Fatalf("RandomMatrix returned %d tasks", len(a.Tasks))
		}
		if a.Blocks < 0 || a.Blocks > 3 {
			t.Fatalf("RandomMatrix shipped %d blocks for one task", a.Blocks)
		}
	})
}

func TestSimulationIntegration(t *testing.T) {
	const n, p = 16, 8
	root := rng.New(123)
	s := speeds.UniformRange(p, 10, 100, root.Split())

	metrics := map[string]*sim.Metrics{}
	for name, build := range builders(n, p) {
		m := sim.Run(build(root.Split()), speeds.NewFixed(s))
		metrics[name] = m
		total := 0
		for _, v := range m.TasksPer {
			total += v
		}
		if total != n*n*n {
			t.Fatalf("%s: simulator processed %d tasks, want %d", name, total, n*n*n)
		}
	}
	if metrics["DynamicMatrix"].Blocks >= metrics["RandomMatrix"].Blocks {
		t.Fatalf("DynamicMatrix (%d) did not beat RandomMatrix (%d)",
			metrics["DynamicMatrix"].Blocks, metrics["RandomMatrix"].Blocks)
	}
	if metrics["DynamicMatrix2Phases"].Blocks >= metrics["DynamicMatrix"].Blocks {
		t.Fatalf("DynamicMatrix2Phases (%d) did not beat DynamicMatrix (%d)",
			metrics["DynamicMatrix2Phases"].Blocks, metrics["DynamicMatrix"].Blocks)
	}
}

func TestTwoPhasesAutoCompetitive(t *testing.T) {
	const n, p = 16, 10
	root := rng.New(31)
	s := speeds.UniformRange(p, 10, 100, root.Split())
	auto := sim.Run(flat.NewTwoPhasesAuto(Kernel, n, p, rng.New(77)), speeds.NewFixed(s))
	dynamic := sim.Run(NewDynamic(n, p, rng.New(77)), speeds.NewFixed(s))
	if auto.Blocks >= dynamic.Blocks {
		t.Fatalf("speed-agnostic two-phase (%d blocks) did not beat DynamicMatrix (%d)",
			auto.Blocks, dynamic.Blocks)
	}
}
