package flat_test

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/flat"
	"hetsched/internal/matmul"
	"hetsched/internal/outer"
	"hetsched/internal/rng"
)

// kernel is one flat kernel as the tables below run it.
type kernel struct {
	name string
	k    *flat.Kernel
	beta float64 // the 2phases switch of the strategy tables
	// owns reports whether worker w holds every block task t reads,
	// from the kernel's own task encoding.
	owns func(in *flat.Instance, w int, t core.Task) bool
}

var (
	outerKernel = kernel{"outer", outer.Kernel, 4, func(in *flat.Instance, w int, t core.Task) bool {
		i, j := outer.Decode(t, in.N)
		return in.Own[0][w].Test(i) && in.Own[1][w].Test(j)
	}}
	matmulKernel = kernel{"matmul", matmul.Kernel, 3, func(in *flat.Instance, w int, t core.Task) bool {
		i, j, k := matmul.Decode(t, in.N)
		n := in.N
		return in.Own[0][w].Test(i*n+k) && in.Own[1][w].Test(k*n+j) && in.Own[2][w].Test(i*n+j)
	}}
)

// run is one strategy of a kernel and the instance it runs on.
type run struct {
	s  core.Scheduler
	in *flat.Instance
}

// strategies builds c's four strategies on an n-block run of p workers,
// each from rng.New(seed).
func (c kernel) strategies(n, p int, seed uint64) []run {
	random := flat.NewRandom(c.k, n, p, rng.New(seed))
	sorted := flat.NewSorted(c.k, n, p, rng.New(seed))
	dynIn := flat.NewInstance(c.k, n, p, rng.New(seed))
	two := flat.NewTwoPhases(c.k, n, p, c.k.ThresholdFromBeta(c.beta, n), rng.New(seed))
	return []run{{random, random.Instance}, {sorted, sorted.Instance}, {c.k.NewDynamic(dynIn), dynIn}, {two, two.Instance}}
}

// drain drives a scheduler with a round-robin of workers until it is
// exhausted, invoking check after every assignment, and returns the
// total number of tasks and blocks handed out.
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

func TestEveryTaskAssignedExactlyOnce(t *testing.T) {
	cases := []struct {
		k    kernel
		n, p int
	}{
		{outerKernel, 30, 7},
		{matmulKernel, 12, 5},
	}
	for _, c := range cases {
		t.Run(c.k.name, func(t *testing.T) {
			for _, r := range c.k.strategies(c.n, c.p, 42) {
				total := r.s.Total()
				seen := make(map[core.Task]bool, total)
				tasks, _ := drain(t, r.s, func(_ int, a core.Assignment) {
					for _, task := range a.Tasks {
						if seen[task] {
							t.Fatalf("%s: task %d assigned twice", r.s.Name(), task)
						}
						if task < 0 || int(task) >= total {
							t.Fatalf("%s: task %d out of range", r.s.Name(), task)
						}
						seen[task] = true
					}
				})
				if want := int(math.Pow(float64(c.n), float64(c.k.k.Dim))); tasks != want || total != want {
					t.Fatalf("%s: %d of %d tasks assigned, want %d", r.s.Name(), tasks, total, want)
				}
			}
		})
	}
}

func TestWorkerAlwaysOwnsTaskInputs(t *testing.T) {
	cases := []struct {
		k    kernel
		n, p int
	}{
		{outerKernel, 25, 5},
		{matmulKernel, 10, 4},
	}
	for _, c := range cases {
		t.Run(c.k.name, func(t *testing.T) {
			for _, r := range c.k.strategies(c.n, c.p, 7) {
				drain(t, r.s, func(w int, a core.Assignment) {
					for _, task := range a.Tasks {
						if !c.k.owns(r.in, w, task) {
							t.Fatalf("%s: worker %d assigned task %d without owning its blocks", r.s.Name(), w, task)
						}
					}
				})
			}
		})
	}
}

func TestSortedOrder(t *testing.T) {
	cases := []struct {
		k    kernel
		n, p int
	}{
		{outerKernel, 15, 3},
		{matmulKernel, 8, 3},
	}
	for _, c := range cases {
		t.Run(c.k.name, func(t *testing.T) {
			s := flat.NewSorted(c.k.k, c.n, c.p, rng.New(1))
			last := core.Task(-1)
			drain(t, s, func(_ int, a core.Assignment) {
				if a.Tasks[0] <= last {
					t.Fatalf("%s out of order: %d after %d", s.Name(), a.Tasks[0], last)
				}
				last = a.Tasks[0]
			})
		})
	}
}

func TestThresholdHelpers(t *testing.T) {
	type point struct {
		what string
		fn   func(k *flat.Kernel, x float64, n int) int
		x    float64
		n    int
		want int
	}
	beta, fraction := (*flat.Kernel).ThresholdFromBeta, (*flat.Kernel).ThresholdFromPhase1Fraction
	cases := []struct {
		k      kernel
		cube   func(x, nf float64) float64 // x·n^d, left to right
		points []point
	}{
		{outerKernel, func(x, nf float64) float64 { return x * nf * nf }, []point{
			{"beta", beta, 0, 100, 100 * 100},
			{"beta", beta, 50, 100, 0},
			{"fraction", fraction, 1, 100, 0},
			{"fraction", fraction, 0, 100, 100 * 100},
		}},
		{matmulKernel, func(x, nf float64) float64 { return x * nf * nf * nf }, []point{
			{"beta", beta, 0, 20, 20 * 20 * 20},
			{"beta", beta, 60, 20, 0},
			{"fraction", fraction, 0.5, 10, 500},
		}},
	}
	for _, c := range cases {
		t.Run(c.k.name, func(t *testing.T) {
			k := c.k.k
			for _, pt := range c.points {
				if got := pt.fn(k, pt.x, pt.n); got != pt.want {
					t.Errorf("%s %g, n=%d: threshold %d, want %d", pt.what, pt.x, pt.n, got, pt.want)
				}
			}
			// Both helpers multiply by float64(n) once per dimension, left
			// to right: float64(n*n*n) rounds differently and can move a
			// threshold. The two orders differ only where the product is
			// within an ulp of an integer, so besides a plain sweep the β
			// points are ln(n^d/m) for integers m, and the floats either
			// side of each.
			for n := 1; n <= 300; n += 7 {
				nf := float64(n)
				checkBeta := func(b float64) {
					if got, want := k.ThresholdFromBeta(b, n), int(math.Floor(c.cube(math.Exp(-b), nf))); got != want {
						t.Fatalf("ThresholdFromBeta(%v, %d) = %d, want %d", b, n, got, want)
					}
				}
				for x := 0.0; x <= 1; x += 1.0 / 64 {
					checkBeta(8 * x)
					if got, want := k.ThresholdFromPhase1Fraction(x, n), int(math.Round(c.cube(1-x, nf))); got != want {
						t.Fatalf("ThresholdFromPhase1Fraction(%g, %d) = %d, want %d", x, n, got, want)
					}
				}
				total := k.Tasks(n)
				for m := 1; m <= total; m += 1 + total/97 {
					b := math.Log(float64(total) / float64(m))
					for _, nb := range []float64{math.Nextafter(b, 0), b, math.Nextafter(b, 100)} {
						checkBeta(nb)
					}
				}
			}
			defer func() {
				if recover() == nil {
					t.Error("fraction out of range did not panic")
				}
			}()
			k.ThresholdFromPhase1Fraction(1.5, 10)
		})
	}
}

// TestNewRandomHeap counts the bytes a Random strategy allocates at
// outer n=1000: the million-task pool at 4 bytes a task, the processed
// set and the workers' holdings.
func TestNewRandomHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := flat.NewRandom(outer.Kernel, 1000, 10, rng.New(1))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4_200_000 {
		t.Errorf("NewRandom(outer, n=1000) allocated %d bytes, want at most 4,200,000", got)
	}
	runtime.KeepAlive(s)
}

func TestTwoPhasesPhaseAccounting(t *testing.T) {
	cases := []struct {
		k               kernel
		n, p, threshold int
	}{
		{outerKernel, 30, 4, 200},
		{matmulKernel, 12, 4, 400},
	}
	for _, c := range cases {
		t.Run(c.k.name, func(t *testing.T) {
			s := flat.NewTwoPhases(c.k.k, c.n, c.p, c.threshold, rng.New(13))
			drain(t, s, nil)
			total := s.Total()
			phase1 := s.Phase1Tasks()
			if phase1 < total-c.threshold || phase1 > total {
				t.Fatalf("phase-1 task count %d inconsistent with threshold %d (total %d)", phase1, c.threshold, total)
			}
			// Phase 1 ends with tasks left, so a run that switched
			// counts fewer than all of them.
			if phase1 == total {
				t.Fatal("two-phase scheduler never switched despite positive threshold")
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	cases := []struct {
		k    kernel
		n, p int
	}{
		{outerKernel, 25, 6},
		{matmulKernel, 10, 4},
	}
	for _, c := range cases {
		t.Run(c.k.name, func(t *testing.T) {
			first, second := c.k.strategies(c.n, c.p, 99), c.k.strategies(c.n, c.p, 99)
			for i := range first {
				a, b := first[i].s, second[i].s
				t1, b1 := drain(t, a, nil)
				t2, b2 := drain(t, b, nil)
				if t1 != t2 || b1 != b2 {
					t.Fatalf("%s not deterministic: (%d,%d) vs (%d,%d)", a.Name(), t1, b1, t2, b2)
				}
				if !bytes.Equal(a.(core.Snapshotter).AppendState(nil), b.(core.Snapshotter).AppendState(nil)) {
					t.Fatalf("%s not deterministic: the drained states differ", a.Name())
				}
			}
		})
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, c := range []kernel{outerKernel, matmulKernel} {
		t.Run(c.name, func(t *testing.T) {
			for name, fn := range map[string]func(){
				"n=0":     func() { flat.NewRandom(c.k, 0, 3, rng.New(1)) },
				"p=0":     func() { flat.NewDynamic(c.k, 10, 0, rng.New(1)) },
				"nil rng": func() { flat.NewSorted(c.k, 10, 3, nil) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("constructor with %s did not panic", name)
						}
					}()
					fn()
				}()
			}
		})
	}
}
