package service

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/qr"
	"hetsched/internal/rng"
)

// drainSequential drives a run in deterministic round-robin worker
// order, one allocation step per poll, and returns the total blocks
// and tasks granted.
func drainSequential(t *testing.T, base string, info RunInfo) (blocks, tasks int) {
	t.Helper()
	completed := make([][]int64, info.P)
	done := make([]bool, info.P)
	for remaining := info.P; remaining > 0; {
		for w := 0; w < info.P; w++ {
			if done[w] {
				continue
			}
			var next NextResponse
			if code := call(t, "POST", fmt.Sprintf("%s/v1/runs/%s/next", base, info.ID),
				NextRequest{Worker: w, Completed: completed[w]}, &next); code != http.StatusOK {
				t.Fatalf("worker %d: status %d", w, code)
			}
			completed[w] = nil
			switch next.Status {
			case StatusDone:
				done[w] = true
				remaining--
			case StatusOK:
				blocks += next.Blocks
				tasks += len(next.Tasks)
				completed[w] = next.Tasks
			}
		}
	}
	return blocks, tasks
}

// TestEndToEndQRDeterministicVolume is the acceptance check for the
// new QR run kind: a QR run is drivable end-to-end through schedd, and
// equal seeds give bit-identical communication volume — both between
// two service runs and against the in-process driver built from the
// same seed and stepped in the same request order.
func TestEndToEndQRDeterministicVolume(t *testing.T) {
	const n, p, seed = 8, 3, 42
	_, ts := newTestServer(t, Options{})

	req := CreateRunRequest{Kernel: KernelQR, Strategy: "locality", N: n, P: p, Seed: seed, Batch: 1}
	infoA := createRun(t, ts.URL, req)
	infoB := createRun(t, ts.URL, req)
	if infoA.Total != qr.Kernel.Tasks(n) {
		t.Fatalf("run total = %d, want %d", infoA.Total, qr.Kernel.Tasks(n))
	}

	blocksA, tasksA := drainSequential(t, ts.URL, infoA)
	blocksB, tasksB := drainSequential(t, ts.URL, infoB)
	if tasksA != qr.Kernel.Tasks(n) || tasksB != qr.Kernel.Tasks(n) {
		t.Fatalf("granted %d and %d tasks, want %d", tasksA, tasksB, qr.Kernel.Tasks(n))
	}
	if blocksA != blocksB {
		t.Fatalf("equal seeds shipped %d vs %d blocks — service QR run not deterministic", blocksA, blocksB)
	}

	// In-process mirror: same seed derivation as service.NewDriver,
	// same report-then-request round-robin order.
	drv := dag.NewDriver(qr.Kernel, n, p, dag.LocalityReady, rng.New(seed).Split())
	blocks := 0
	pending := make([][]core.Task, p)
	done := make([]bool, p)
	for remaining := p; remaining > 0; {
		for w := 0; w < p; w++ {
			if done[w] {
				continue
			}
			if len(pending[w]) > 0 {
				drv.Complete(w, pending[w])
				pending[w] = nil
			}
			a, ok := drv.Next(w)
			if !ok {
				if drv.Remaining() == 0 {
					done[w] = true
					remaining--
				}
				continue
			}
			blocks += a.Blocks
			pending[w] = append(pending[w], a.Tasks...)
		}
	}
	if blocks != blocksA {
		t.Fatalf("HTTP QR run shipped %d blocks, in-process %d — allocation diverged", blocksA, blocks)
	}
}

// TestExpiredAndSweptRunStatuses pins the registry lifecycle edges on
// every per-run endpoint: an expired-but-unswept run answers 410 Gone,
// a swept run answers 404.
func TestExpiredAndSweptRunStatuses(t *testing.T) {
	svc, ts := newTestServer(t, Options{TTL: -1})
	info := createRun(t, ts.URL, CreateRunRequest{Kernel: KernelQR, N: 4, P: 2, Seed: 1})

	endpoints := func() map[string]func() int {
		return map[string]func() int{
			"info":  func() int { return call(t, "GET", ts.URL+"/v1/runs/"+info.ID, nil, nil) },
			"next":  func() int { return call(t, "POST", ts.URL+"/v1/runs/"+info.ID+"/next", NextRequest{Worker: 0}, nil) },
			"stats": func() int { return call(t, "GET", ts.URL+"/v1/runs/"+info.ID+"/stats", nil, nil) },
			"trace": func() int { return call(t, "GET", ts.URL+"/v1/runs/"+info.ID+"/trace", nil, nil) },
		}
	}

	if code := call(t, "DELETE", ts.URL+"/v1/runs/"+info.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	for name, hit := range endpoints() {
		if code := hit(); code != http.StatusGone {
			t.Errorf("%s on expired-but-unswept run: status %d, want 410", name, code)
		}
	}
	if n := svc.SweepNow(); n != 1 {
		t.Fatalf("sweep collected %d runs, want 1", n)
	}
	for name, hit := range endpoints() {
		if code := hit(); code != http.StatusNotFound {
			t.Errorf("%s on swept run: status %d, want 404", name, code)
		}
	}
	// A second DELETE of a swept run is also a clean 404.
	if code := call(t, "DELETE", ts.URL+"/v1/runs/"+info.ID, nil, nil); code != http.StatusNotFound {
		t.Errorf("delete of swept run: status %d, want 404", code)
	}
}

// TestPollRacingJanitorNeverPanics hammers /next from concurrent
// workers while an aggressive janitor expires and sweeps the runs
// under them. Every response must be one of 200/400/404/410 — never a
// panic (which httptest would surface as a 500 or a test crash).
func TestPollRacingJanitorNeverPanics(t *testing.T) {
	_, ts := newTestServer(t, Options{TTL: time.Nanosecond, GCInterval: time.Millisecond})

	const workers = 4
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		info := createRun(t, ts.URL, CreateRunRequest{Kernel: KernelLU, N: 6, P: workers, Seed: uint64(round)})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var completed []int64
				deadline := time.Now().Add(200 * time.Millisecond)
				for time.Now().Before(deadline) {
					var next NextResponse
					code := call(t, "POST", fmt.Sprintf("%s/v1/runs/%s/next", ts.URL, info.ID),
						NextRequest{Worker: w, Completed: completed}, &next)
					completed = nil
					switch code {
					case http.StatusOK:
						if next.Status == StatusDone {
							return
						}
						completed = next.Tasks
					case http.StatusGone, http.StatusNotFound:
						// The janitor won the race; the worker retires.
						return
					default:
						t.Errorf("worker %d: unexpected status %d", w, code)
						return
					}
				}
			}(w)
		}
	}
	wg.Wait()
}

// TestLeaseLifecycleOverHTTP exercises the lease protocol at the wire
// level: the next response advertises lease_seconds, a late completion
// draws 409 Conflict, and the reclaim is visible in stats.
func TestLeaseLifecycleOverHTTP(t *testing.T) {
	const lease = 20 * time.Millisecond
	_, ts := newTestServer(t, Options{TTL: -1})
	info := createRun(t, ts.URL, CreateRunRequest{
		Kernel: KernelOuter, N: 4, P: 2, Seed: 1, Batch: 2,
		LeaseSeconds: lease.Seconds(),
	})

	var next NextResponse
	if code := call(t, "POST", ts.URL+"/v1/runs/"+info.ID+"/next",
		NextRequest{Worker: 0}, &next); code != http.StatusOK {
		t.Fatalf("grant: status %d", code)
	}
	if next.Status != StatusOK || next.LeaseSeconds != lease.Seconds() {
		t.Fatalf("grant = %s lease=%gs, want ok/%g", next.Status, next.LeaseSeconds, lease.Seconds())
	}

	time.Sleep(4 * lease)
	// The late report is rejected 409 — the poll's own reclaim pass
	// already took the batch back.
	if code := call(t, "POST", ts.URL+"/v1/runs/"+info.ID+"/next",
		NextRequest{Worker: 0, Completed: next.Tasks}, nil); code != http.StatusConflict {
		t.Fatalf("late completion: status %d, want 409", code)
	}
	var st StatsResponse
	call(t, "GET", ts.URL+"/v1/runs/"+info.ID+"/stats", nil, &st)
	if st.Reclaimed != len(next.Tasks) || st.LeaseSeconds != lease.Seconds() {
		t.Fatalf("stats reclaimed=%d lease=%gs, want %d/%g", st.Reclaimed, st.LeaseSeconds, len(next.Tasks), lease.Seconds())
	}

	// A run can opt out of the server's default lease explicitly.
	noLease := createRun(t, ts.URL, CreateRunRequest{Kernel: KernelOuter, N: 4, P: 1, Seed: 1, LeaseSeconds: -1})
	if noLease.LeaseSeconds != 0 {
		t.Fatalf("opt-out run lease = %g, want 0", noLease.LeaseSeconds)
	}
}

// TestSweepReclaimsOrphanedRun covers the janitor arm of reclamation:
// every worker of a run died, so no poll will ever reclaim — the
// registry sweep must, without expiring the (recently active) run.
func TestSweepReclaimsOrphanedRun(t *testing.T) {
	const lease = 10 * time.Millisecond
	svc, ts := newTestServer(t, Options{TTL: -1, DefaultLease: lease})
	info := createRun(t, ts.URL, CreateRunRequest{Kernel: KernelQR, N: 3, P: 2, Seed: 5})

	var next NextResponse
	call(t, "POST", ts.URL+"/v1/runs/"+info.ID+"/next", NextRequest{Worker: 0}, &next)
	if next.Status != StatusOK {
		t.Fatalf("grant = %s", next.Status)
	}
	time.Sleep(4 * lease)
	if n := svc.SweepNow(); n != 0 {
		t.Fatalf("sweep collected %d runs, want 0 (reclaim, not expiry)", n)
	}
	var st StatsResponse
	call(t, "GET", ts.URL+"/v1/runs/"+info.ID+"/stats", nil, &st)
	if st.Reclaimed != len(next.Tasks) || st.Outstanding != 0 {
		t.Fatalf("after sweep: reclaimed=%d outstanding=%d, want %d/0", st.Reclaimed, st.Outstanding, len(next.Tasks))
	}
	// The reclaimed root task is schedulable again: a fresh worker
	// resumes the run where the dead crew left it.
	var resumed NextResponse
	call(t, "POST", ts.URL+"/v1/runs/"+info.ID+"/next", NextRequest{Worker: 1}, &resumed)
	if resumed.Status != StatusOK || len(resumed.Tasks) == 0 {
		t.Fatalf("resume poll = %s with %d tasks", resumed.Status, len(resumed.Tasks))
	}
}
