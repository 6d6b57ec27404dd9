package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/outer"
	"hetsched/internal/rng"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.GCInterval == 0 {
		opts.GCInterval = -1 // tests sweep explicitly
	}
	svc := New(opts)
	ts := httptest.NewServer(svc)
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

// call posts (or gets, body == nil) url and strictly decodes the
// response into out, returning the HTTP status code.
func call(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var req *http.Request
	var err error
	if body != nil {
		b, merr := json.Marshal(body)
		if merr != nil {
			t.Fatal(merr)
		}
		req, err = http.NewRequest(method, url, bytes.NewReader(b))
	} else {
		req, err = http.NewRequest(method, url, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := DecodeStrict(resp.Body, out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func createRun(t *testing.T, base string, q CreateRunRequest) RunInfo {
	t.Helper()
	var info RunInfo
	if code := call(t, "POST", base+"/v1/runs", q, &info); code != http.StatusCreated {
		t.Fatalf("create run: status %d", code)
	}
	return info
}

// drainHTTP runs p worker goroutines against the run until every one
// of them observes StatusDone, returning all tasks each was assigned.
func drainHTTP(t *testing.T, base string, info RunInfo) [][]int64 {
	t.Helper()
	got := make([][]int64, info.P)
	var wg sync.WaitGroup
	for w := 0; w < info.P; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var completed []int64
			for {
				var next NextResponse
				code := call(t, "POST", fmt.Sprintf("%s/v1/runs/%s/next", base, info.ID),
					NextRequest{Worker: w, Completed: completed}, &next)
				if code != http.StatusOK {
					t.Errorf("worker %d: status %d", w, code)
					return
				}
				completed = nil
				switch next.Status {
				case StatusDone:
					return
				case StatusWait:
					time.Sleep(50 * time.Microsecond)
				case StatusOK:
					got[w] = append(got[w], next.Tasks...)
					completed = next.Tasks
				}
			}
		}(w)
	}
	wg.Wait()
	return got
}

// TestEndToEndConcurrentDrain is the acceptance flow: create a run
// over the HTTP API, drain it with concurrent workers, and check the
// stats endpoint reports a fully, exactly-once-assigned instance.
func TestEndToEndConcurrentDrain(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	info := createRun(t, ts.URL, CreateRunRequest{
		Kernel: KernelOuter, Strategy: "2phases", N: 24, P: 8, Seed: 7, Batch: 4,
	})
	if info.Total != 24*24 || info.State != StateCreated {
		t.Fatalf("unexpected run info %+v", info)
	}

	got := drainHTTP(t, ts.URL, info)
	seen := make(map[int64]int)
	count := 0
	for _, tasks := range got {
		for _, task := range tasks {
			seen[task]++
			count++
		}
	}
	if count != info.Total {
		t.Fatalf("assigned %d tasks over HTTP, want %d", count, info.Total)
	}
	for task, times := range seen {
		if times != 1 {
			t.Fatalf("task %d assigned %d times", task, times)
		}
	}

	var st StatsResponse
	if code := call(t, "GET", fmt.Sprintf("%s/v1/runs/%s/stats", ts.URL, info.ID), nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Remaining != 0 || st.Outstanding != 0 || st.State != StateComplete {
		t.Errorf("stats after drain: remaining=%d outstanding=%d state=%q", st.Remaining, st.Outstanding, st.State)
	}
	if st.Completed != info.Total || st.Blocks <= 0 {
		t.Errorf("stats after drain: completed=%d blocks=%d", st.Completed, st.Blocks)
	}

	var tr TraceResponse
	if code := call(t, "GET", fmt.Sprintf("%s/v1/runs/%s/trace", ts.URL, info.ID), nil, &tr); code != http.StatusOK {
		t.Fatalf("trace: status %d", code)
	}
	segTasks := 0
	for _, seg := range tr.Trace.Segments {
		segTasks += seg.Tasks
	}
	if segTasks != info.Total {
		t.Errorf("trace accounts %d tasks, want %d", segTasks, info.Total)
	}
}

// TestEndToEndDeterministicVolume drives a service run sequentially in
// round-robin worker order and checks its communication volume is
// bit-identical to the in-process driver built from the same seed and
// stepped in the same order — the service adds concurrency control,
// not allocation behavior.
func TestEndToEndDeterministicVolume(t *testing.T) {
	const n, p, seed = 16, 4, 42
	_, ts := newTestServer(t, Options{})
	info := createRun(t, ts.URL, CreateRunRequest{
		Kernel: KernelOuter, Strategy: "dynamic", N: n, P: p, Seed: seed, Batch: 1,
	})

	httpBlocks, httpTasks := 0, 0
	completed := make([][]int64, p)
	done := make([]bool, p)
	for remaining := p; remaining > 0; {
		for w := 0; w < p; w++ {
			if done[w] {
				continue
			}
			var next NextResponse
			call(t, "POST", fmt.Sprintf("%s/v1/runs/%s/next", ts.URL, info.ID),
				NextRequest{Worker: w, Completed: completed[w]}, &next)
			completed[w] = nil
			switch next.Status {
			case StatusDone:
				done[w] = true
				remaining--
			case StatusOK:
				httpBlocks += next.Blocks
				httpTasks += len(next.Tasks)
				completed[w] = next.Tasks
			}
		}
	}

	// In-process mirror: same seed derivation as service.NewDriver,
	// same single-step round-robin request order.
	drv := core.NewSchedulerDriver(outer.NewDynamic(n, p, rng.New(seed).Split()))
	blocks, tasks := 0, 0
	for drv.Remaining() > 0 {
		for w := 0; w < p; w++ {
			if a, ok := drv.Next(w); ok {
				blocks += a.Blocks
				tasks += len(a.Tasks)
			}
		}
	}
	if httpTasks != tasks || httpTasks != n*n {
		t.Errorf("HTTP run allocated %d tasks, in-process %d, want %d", httpTasks, tasks, n*n)
	}
	if httpBlocks != blocks {
		t.Errorf("HTTP run shipped %d blocks, in-process %d — allocation diverged", httpBlocks, blocks)
	}

	var st StatsResponse
	call(t, "GET", fmt.Sprintf("%s/v1/runs/%s/stats", ts.URL, info.ID), nil, &st)
	if st.Blocks != blocks {
		t.Errorf("stats blocks = %d, want %d", st.Blocks, blocks)
	}
}

func TestRunLifecycleAndGC(t *testing.T) {
	svc, ts := newTestServer(t, Options{TTL: -1})
	info := createRun(t, ts.URL, CreateRunRequest{Kernel: KernelOuter, N: 4, P: 1, Seed: 1})

	var got RunInfo
	if code := call(t, "GET", ts.URL+"/v1/runs/"+info.ID, nil, &got); code != http.StatusOK || got.State != StateCreated {
		t.Fatalf("info: status %d state %q", code, got.State)
	}
	var list RunList
	call(t, "GET", ts.URL+"/v1/runs", nil, &list)
	if len(list.Runs) != 1 || list.Runs[0].ID != info.ID {
		t.Fatalf("list = %+v", list)
	}

	// DELETE expires; the run then answers 410 until the sweep drops
	// it, after which it is 404.
	if code := call(t, "DELETE", ts.URL+"/v1/runs/"+info.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if code := call(t, "GET", ts.URL+"/v1/runs/"+info.ID, nil, nil); code != http.StatusGone {
		t.Errorf("expired run: status %d, want 410", code)
	}
	if n := svc.SweepNow(); n != 1 {
		t.Errorf("sweep collected %d runs, want 1", n)
	}
	if code := call(t, "GET", ts.URL+"/v1/runs/"+info.ID, nil, nil); code != http.StatusNotFound {
		t.Errorf("collected run: status %d, want 404", code)
	}

	// TTL-based expiry: with a 1ns TTL every idle run collects.
	svc2, ts2 := newTestServer(t, Options{TTL: time.Nanosecond})
	createRun(t, ts2.URL, CreateRunRequest{Kernel: KernelOuter, N: 4, P: 1, Seed: 1})
	time.Sleep(time.Millisecond)
	if n := svc2.SweepNow(); n != 1 {
		t.Errorf("TTL sweep collected %d runs, want 1", n)
	}
	if svc2.Registry().Len() != 0 {
		t.Errorf("registry still holds %d runs", svc2.Registry().Len())
	}
}

func TestServerRejectsMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/runs", `{"kernel":"outer","n":10,"p":2,"bogus":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", code)
	}
	if code := post("/v1/runs", `{"kernel":"fft","n":10,"p":2}`); code != http.StatusBadRequest {
		t.Errorf("unknown kernel: status %d", code)
	}
	if code := post("/v1/runs", `not json`); code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", code)
	}
	if code := post("/v1/runs/nope/next", `{"worker":0}`); code != http.StatusNotFound {
		t.Errorf("unknown run: status %d", code)
	}

	info := createRun(t, ts.URL, CreateRunRequest{Kernel: KernelOuter, N: 4, P: 2, Seed: 1})
	if code := post("/v1/runs/"+info.ID+"/next", `{"worker":7}`); code != http.StatusBadRequest {
		t.Errorf("out-of-range worker: status %d", code)
	}
	if code := post("/v1/runs/"+info.ID+"/next", `{"worker":0,"completed":[3]}`); code != http.StatusBadRequest {
		t.Errorf("bogus completion: status %d", code)
	}
}

func TestRegistrySharding(t *testing.T) {
	g := NewRegistry(4, 0)
	ids := make([]string, 100)
	for i := range ids {
		ids[i] = g.newID()
		g.Add(&Run{ID: ids[i], Created: time.Unix(int64(i), 0), Host: NewHost(
			core.NewSchedulerDriver(outer.NewRandom(2, 1, rng.New(1).Split())), 1, 0)})
	}
	if g.Len() != 100 {
		t.Fatalf("Len = %d, want 100", g.Len())
	}
	// Every ID resolves through its shard, and listing is ordered.
	for _, id := range ids {
		if _, ok := g.Get(id); !ok {
			t.Fatalf("run %s not found", id)
		}
	}
	runs := g.Runs()
	for i := 1; i < len(runs); i++ {
		if runs[i].Created.Before(runs[i-1].Created) {
			t.Fatal("listing not ordered by creation time")
		}
	}
	// IDs spread over all shards (with 100 IDs over 4 shards a miss is
	// astronomically unlikely).
	used := 0
	for _, s := range g.shards {
		if len(s.runs) > 0 {
			used++
		}
	}
	if used != 4 {
		t.Errorf("IDs hashed to %d of 4 shards", used)
	}
	g.Remove(ids[0])
	if _, ok := g.Get(ids[0]); ok {
		t.Error("removed run still resolvable")
	}
}
