package service

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/rng"
)

// TestKernelAdmission pins, per kernel, what run creation admits and
// answers: the largest admitted n and the smallest rejected one (DAG
// kernels are admitted on the conservative n³, not their exact task
// count), the overflow guard above n = 2²⁰, the default strategy, and
// an unknown strategy's error from NewDriver and from POST /v1/runs.
func TestKernelAdmission(t *testing.T) {
	cases := []struct {
		kernel     string
		largest    int   // largest n Validate admits
		rejected   int64 // tasks counted for largest+1
		guard      int64 // tasks counted for n = 2²⁰, the last n the guard lets through
		defaultStr string
		strategies []string
	}{
		{KernelOuter, 4096, 4097 * 4097, 1 << 40, "2phases", []string{"random", "sorted", "dynamic", "2phases"}},
		{KernelMatmul, 256, 257 * 257 * 257, 1 << 60, "2phases", []string{"random", "sorted", "dynamic", "2phases"}},
		{KernelCholesky, 256, 257 * 257 * 257, 1 << 60, "locality", []string{"random", "locality", "critpath"}},
		{KernelLU, 256, 257 * 257 * 257, 1 << 60, "locality", []string{"random", "locality", "critpath"}},
		{KernelQR, 256, 257 * 257 * 257, 1 << 60, "locality", []string{"random", "locality", "critpath"}},
	}
	tooLarge := func(tasks int64) string {
		return fmt.Sprintf("instance too large: %d tasks exceeds the per-run cap of 16777216", tasks)
	}
	svc := New(Options{GCInterval: -1})
	defer svc.Close()

	for _, c := range cases {
		t.Run(c.kernel, func(t *testing.T) {
			q := CreateRunRequest{Kernel: c.kernel, N: c.largest, P: 1}
			if err := q.Validate(); err != nil {
				t.Fatalf("n=%d rejected: %v", c.largest, err)
			}
			if q.Strategy != c.defaultStr {
				t.Errorf("default strategy %q, want %q", q.Strategy, c.defaultStr)
			}
			for _, tc := range []struct {
				n     int
				tasks int64
			}{
				{c.largest + 1, c.rejected},
				{1 << 20, c.guard},
				{1<<20 + 1, 1<<24 + 1}, // the overflow guard
			} {
				q := CreateRunRequest{Kernel: c.kernel, N: tc.n, P: 1}
				err := q.Validate()
				if want := tooLarge(tc.tasks); err == nil || err.Error() != want {
					t.Errorf("n=%d: error %v, want %q", tc.n, err, want)
				}
			}

			for _, s := range c.strategies {
				if _, err := NewDriver(&CreateRunRequest{Kernel: c.kernel, Strategy: s, N: 3, P: 2}); err != nil {
					t.Errorf("strategy %q: %v", s, err)
				}
			}
			want := fmt.Sprintf("kernel %q has no strategy %q", c.kernel, "nope")
			if _, err := NewDriver(&CreateRunRequest{Kernel: c.kernel, Strategy: "nope", N: 3, P: 2}); err == nil || err.Error() != want {
				t.Errorf("unknown strategy: error %v, want %q", err, want)
			}
			rec := httptest.NewRecorder()
			body := fmt.Sprintf(`{"kernel":%q,"strategy":"nope","n":3,"p":2}`, c.kernel)
			svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
			wantBody := fmt.Sprintf(`{"error":"kernel \"%s\" has no strategy \"nope\""}`+"\n", c.kernel)
			if rec.Code != http.StatusBadRequest || rec.Body.String() != wantBody {
				t.Errorf("POST /v1/runs: %d %q, want 400 %q", rec.Code, rec.Body.String(), wantBody)
			}
		})
	}
}

// TestKernelsBuild builds every Kernels entry × strategy and checks
// that the run it makes has no more tasks than creation admitted it on.
func TestKernelsBuild(t *testing.T) {
	for i, k := range Kernels {
		if LookupKernel(k.Name) != &Kernels[i] {
			t.Errorf("%s: the name does not find this entry", k.Name)
		}
		var hasDefault bool
		for _, s := range k.Strategies {
			hasDefault = hasDefault || s.Name == k.Default
			for _, n := range []int{1, 2, 5, 16} {
				q := CreateRunRequest{Kernel: k.Name, Strategy: s.Name, N: n, P: 3}
				if err := q.Validate(); err != nil {
					t.Fatalf("%s-%s n=%d: %v", k.Name, s.Name, n, err)
				}
				drv, err := NewDriver(&q)
				if err != nil {
					t.Fatalf("%s-%s n=%d: %v", k.Name, s.Name, n, err)
				}
				if total, admitted := drv.Total(), k.admitTasks(int64(n)); int64(total) > admitted {
					t.Errorf("%s-%s n=%d: %d tasks, admitted on %d", k.Name, s.Name, n, total, admitted)
				}
			}
		}
		if !hasDefault {
			t.Errorf("%s: default strategy %q is not one of its strategies", k.Name, k.Default)
		}
	}
}

// TestCosterAllocatesNothing: the cluster harness prices a DAG run's
// tasks without building a task graph of its own. Making a DAG kernel's
// Coster and asking it 100 prices allocates nothing, and each price is
// the driver's.
func TestCosterAllocatesNothing(t *testing.T) {
	const n = 48
	ids := make([]core.Task, 100)
	for i := range ids {
		ids[i] = dag.EncodeTask(dag.Task{Kind: dag.Kind(i % 3), I: i % n, J: i * 7 % n, K: i * 13 % n}, n)
	}
	for _, k := range Kernels {
		if k.DAG == nil {
			continue
		}
		t.Run(k.Name, func(t *testing.T) {
			drv, err := NewDriver(&CreateRunRequest{Kernel: k.Name, Strategy: k.Default, N: n, P: 2})
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			allocs := testing.AllocsPerRun(10, func() {
				cost := LookupKernel(k.Name).Coster(n)
				for _, id := range ids {
					sum += cost(id)
				}
			})
			if allocs != 0 {
				t.Errorf("Coster(%d) and 100 prices: %v allocations, want 0", n, allocs)
			}
			cost := k.Coster(n)
			for _, id := range ids {
				if got, want := cost(id), drv.(core.TaskCoster).TaskCost(id); got != want {
					t.Fatalf("task %d: Coster prices %g, the driver %g", id, got, want)
				}
			}
		})
	}
}

// TestFlatStatePinned pins the flat kernels' four strategies as run
// creation builds them (2phases at β = 3): an FNV-64a over
// every grant's tasks and block count, and the driver state's FNV-64a
// and length at three cuts — a quarter and a half of the tasks
// granted, and at most 1/64 left, which is past the 2phases switch.
// Workers poll in a seeded order and never complete. A change to a
// flat strategy that moves a draw, a grant, a block count or a state
// byte shows here.
func TestFlatStatePinned(t *testing.T) {
	pins := map[string]string{
		"outer-random":   "1371fc6278c7f337/2599 6d2c3089f6f17ca9/1836 d30e8d6eb8bb8e3a/344 grants=f29d00fd94d5c517",
		"outer-sorted":   "f1f3d6c04d5d95f0/299 3e8fdab5b0a55437/299 26fb803050a32e10/299 grants=3fb262b73198213b",
		"outer-dynamic":  "71d3f0346d2c387f/712 2e491551a767f2c4/712 e7dc4929066ed912/712 grants=116e785bf8745a5f",
		"outer-2phases":  "9759a8158223ffcd/713 0e21fdbf75a1830c/713 af28aec12c5ca735/354 grants=1fb8af79479de685",
		"matmul-random":  "f33988275df45daa/3086 2142f16604fda5d5/2261 b9877bd71df55f25/646 grants=a1398987294b1015",
		"matmul-sorted":  "a17ba3d58c8bb8d9/595 55907f68bd1ae9d6/595 2dbb362d197c8210/595 grants=75180daad409fc81",
		"matmul-dynamic": "6b9b7feedf5e7f9a/788 ecc2914a7619dbe0/788 39d72d44fab8ada7/788 grants=f0b9891794951879",
		"matmul-2phases": "37b9fce58d92d2ae/789 6878c186adf09da0/789 d5f4de824fb8bf8a/842 grants=2eb734b8e84ea647",
	}
	for _, k := range []struct {
		kernel string
		n      int
	}{{KernelOuter, 40}, {KernelMatmul, 12}} {
		for _, strategy := range []string{"random", "sorted", "dynamic", "2phases"} {
			name := k.kernel + "-" + strategy
			t.Run(name, func(t *testing.T) {
				q := CreateRunRequest{Kernel: k.kernel, Strategy: strategy, N: k.n, P: 5, Beta: 3}
				drv, err := BuildDriver(&q, rng.New(17))
				if err != nil {
					t.Fatal(err)
				}
				total := drv.Total()
				cuts := []int{total / 4, total / 2, total - total/64}
				pick := rng.NewStream(17, 1)
				grants := fnv.New64a()
				got := ""
				var buf core.TaskBuf
				for granted := 0; drv.Remaining() > 0; {
					a, ok := drv.NextInto(pick.Intn(q.P), buf)
					if !ok {
						continue
					}
					buf = a.Tasks
					for _, task := range a.Tasks {
						grants.Write(binary.AppendUvarint(nil, uint64(task)))
					}
					grants.Write(binary.AppendUvarint(nil, uint64(a.Blocks)))
					granted += len(a.Tasks)
					for len(cuts) > 0 && granted >= cuts[0] {
						state := drv.(core.Snapshotter).AppendState(nil)
						h := fnv.New64a()
						h.Write(state)
						got += fmt.Sprintf("%016x/%d ", h.Sum64(), len(state))
						cuts = cuts[1:]
						if po, ok := drv.(*core.SchedulerDriver).Unwrap().(core.PhaseObserver); ok && len(cuts) == 0 && po.Phase1Tasks() >= granted {
							t.Fatalf("the last cut (%d of %d tasks granted) is not past the switch", granted, total)
						}
					}
				}
				got += fmt.Sprintf("grants=%016x", grants.Sum64())
				if want := pins[name]; got != want {
					t.Errorf("got  %s\npinned %s", got, want)
				}
			})
		}
	}
}
