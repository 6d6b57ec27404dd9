package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
