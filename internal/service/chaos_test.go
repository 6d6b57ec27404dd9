package service

// This file is the real-goroutine chaos *smoke* layer: exactly one
// worker-death test per kernel family, with real HTTP transport, real
// concurrency under -race, and (for outer and Cholesky) real linalg
// block arithmetic verifying the post-chaos numerics. The heavy
// scenario matrix — crash waves, restarts, stragglers, partitions,
// janitor races, thundering herds, drifting-speed fleets, thousands of
// workers — lives in internal/cluster, which drives this same
// Host/Registry code deterministically in virtual time; these tests
// only keep the goroutine/transport dimension honest.

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"hetsched/internal/cholesky"
	"hetsched/internal/core"
	"hetsched/internal/linalg"
	"hetsched/internal/outer"
	"hetsched/internal/qr"
	"hetsched/internal/rng"
)

// chaosLease is the assignment lease used by the chaos scenarios: long
// enough that a healthy worker's poll→execute→report loop (local HTTP,
// microsecond tasks) never trips it even under the race detector, and
// short enough that a killed worker's batch is reclaimed within test
// patience.
const chaosLease = 500 * time.Millisecond

// chaosDrain drives a run over HTTP with one goroutine per worker.
// Workers listed in doomed are killed mid-run: after receiving their
// first granted batch they stop — no execution, no report — exactly
// like a SIGKILL between grant and completion. Surviving workers
// execute every task via execute and report it back; a 409 (lease lost
// in a race) drops the batch and keeps polling, the resilient-client
// behavior the protocol prescribes. It returns how many times each
// task's completion was accepted by the master.
func chaosDrain(t *testing.T, base string, info RunInfo, doomed map[int]bool, execute func(w int, task int64)) map[int64]int {
	t.Helper()
	var mu sync.Mutex
	accepted := make(map[int64]int)
	var wg sync.WaitGroup
	for w := 0; w < info.P; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Survivors start a beat later, so a doomed worker's first
			// poll deterministically wins a batch (for the DAG kernels:
			// the root task — the pure wedge) before it dies.
			if !doomed[w] {
				time.Sleep(10 * time.Millisecond)
			}
			var completed []int64
			for {
				var next NextResponse
				code := call(t, "POST", fmt.Sprintf("%s/v1/runs/%s/next", base, info.ID),
					NextRequest{Worker: w, Completed: completed}, &next)
				switch code {
				case http.StatusOK:
				case http.StatusConflict:
					// The lease beat the report; the reassignment wins
					// and this worker abandons the batch.
					completed = nil
					continue
				default:
					t.Errorf("worker %d: status %d", w, code)
					return
				}
				if len(completed) > 0 {
					mu.Lock()
					for _, task := range completed {
						accepted[task]++
					}
					mu.Unlock()
				}
				completed = nil
				switch next.Status {
				case StatusDone:
					return
				case StatusWait:
					time.Sleep(time.Millisecond)
				case StatusOK:
					if next.LeaseSeconds <= 0 {
						t.Errorf("worker %d: assignment carries no lease", w)
						return
					}
					if doomed[w] {
						return // SIGKILL: the batch dies with the worker
					}
					for _, task := range next.Tasks {
						execute(w, task)
					}
					completed = next.Tasks
				}
			}
		}(w)
	}
	wg.Wait()
	return accepted
}

// checkChaosRun asserts the acceptance criteria common to every chaos
// scenario: the run reached complete, every task's completion was
// accepted exactly once from a surviving worker, and the reclaims are
// visible in /v1/runs/{id}/stats.
func checkChaosRun(t *testing.T, base string, info RunInfo, accepted map[int64]int) StatsResponse {
	t.Helper()
	if len(accepted) != info.Total {
		t.Fatalf("%d distinct tasks completed, want %d", len(accepted), info.Total)
	}
	for task, times := range accepted {
		if times != 1 {
			t.Fatalf("task %d completed %d times", task, times)
		}
	}
	var st StatsResponse
	if code := call(t, "GET", fmt.Sprintf("%s/v1/runs/%s/stats", base, info.ID), nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.State != StateComplete || st.Outstanding != 0 || st.Remaining != 0 || st.Completed != info.Total {
		t.Fatalf("post-chaos stats: state=%s outstanding=%d remaining=%d completed=%d",
			st.State, st.Outstanding, st.Remaining, st.Completed)
	}
	if st.Reclaimed < 1 {
		t.Fatal("stats report no reclaimed tasks after a worker was killed")
	}
	if st.Assigned != st.Completed+st.Reclaimed {
		t.Fatalf("accounting broken: assigned=%d != completed=%d + reclaimed=%d",
			st.Assigned, st.Completed, st.Reclaimed)
	}
	workerReclaims := 0
	for _, ws := range st.Workers {
		workerReclaims += ws.Reclaimed
	}
	if workerReclaims != st.Reclaimed {
		t.Fatalf("per-worker reclaim sum %d != total %d", workerReclaims, st.Reclaimed)
	}
	return st
}

// TestChaosWorkerDeathOuter kills a worker mid-run on the flat
// outer-product kernel and verifies the run completes via host-level
// requeue, with the result numerically identical to the reference
// outer product (exec-backed blocks).
func TestChaosWorkerDeathOuter(t *testing.T) {
	const n, p, l = 12, 4, 4
	_, ts := newTestServer(t, Options{TTL: -1})
	info := createRun(t, ts.URL, CreateRunRequest{
		Kernel: KernelOuter, Strategy: "2phases", N: n, P: p, Seed: 11, Batch: 4,
		LeaseSeconds: chaosLease.Seconds(),
	})
	if info.LeaseSeconds != chaosLease.Seconds() {
		t.Fatalf("run info lease = %g s, want %g", info.LeaseSeconds, chaosLease.Seconds())
	}

	root := rng.New(1)
	a := linalg.NewBlockedVector(n, l)
	b := linalg.NewBlockedVector(n, l)
	a.Fill(root.Split())
	b.Fill(root.Split())
	m := linalg.NewBlockedMatrix(n, l)

	accepted := chaosDrain(t, ts.URL, info, map[int]bool{0: true}, func(_ int, task int64) {
		i, j := outer.Decode(core.Task(task), n)
		linalg.OuterUpdate(a.Blocks[i], b.Blocks[j], m.Block(i, j))
	})
	checkChaosRun(t, ts.URL, info, accepted)
	if d := m.MaxAbsDiff(linalg.ReferenceOuter(a, b)); d > 1e-12 {
		t.Fatalf("post-chaos outer product differs from reference by %g", d)
	}
}

// TestChaosWorkerDeathCholesky kills the worker holding the root
// POTRF — the pure wedge case: nothing else is schedulable until the
// reclaim — and verifies the surviving workers still produce a
// numerically correct factorization through real linalg block kernels.
func TestChaosWorkerDeathCholesky(t *testing.T) {
	const n, p, l = 5, 4, 8
	_, ts := newTestServer(t, Options{TTL: -1, DefaultLease: chaosLease})
	info := createRun(t, ts.URL, CreateRunRequest{
		Kernel: KernelCholesky, Strategy: "locality", N: n, P: p, Seed: 3,
	})

	a := linalg.NewBlockedMatrix(n, l)
	linalg.RandomSPD(a, rng.New(2).Split())
	work := a.Clone()

	var execMu sync.Mutex // tile deps order the math; the lock orders the memory
	accepted := chaosDrain(t, ts.URL, info, map[int]bool{0: true}, func(_ int, task int64) {
		execMu.Lock()
		defer execMu.Unlock()
		if err := cholesky.Kernel.Numerics.Apply(core.Task(task), work); err != nil {
			t.Error(err)
		}
	})
	st := checkChaosRun(t, ts.URL, info, accepted)
	if st.Workers[0].Reclaimed < 1 {
		t.Fatalf("the killed worker's batch was not reclaimed: %+v", st.Workers)
	}
	if resid := linalg.CholeskyResidual(a, work); resid > 1e-8 {
		t.Fatalf("post-chaos Cholesky residual = %g", resid)
	}
}

// TestChaosWorkerDeathQR kills two workers mid-run on the multi-output
// QR kernel (coupled tasks, two write locks per task — the hardest
// reclaim path) and verifies exactly-once accounting end to end.
func TestChaosWorkerDeathQR(t *testing.T) {
	const n, p = 5, 5
	_, ts := newTestServer(t, Options{TTL: -1, DefaultLease: chaosLease})
	info := createRun(t, ts.URL, CreateRunRequest{
		Kernel: KernelQR, Strategy: "critpath", N: n, P: p, Seed: 9,
	})
	if info.Total != qr.Kernel.Tasks(n) {
		t.Fatalf("run total = %d, want %d", info.Total, qr.Kernel.Tasks(n))
	}
	accepted := chaosDrain(t, ts.URL, info, map[int]bool{0: true, 2: true}, func(int, int64) {})
	st := checkChaosRun(t, ts.URL, info, accepted)
	// Both victims lost at least one batch between them.
	if st.Workers[0].Reclaimed+st.Workers[2].Reclaimed != st.Reclaimed {
		t.Fatalf("reclaims attributed to survivors: %+v", st.Workers)
	}
}
