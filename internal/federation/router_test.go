package federation

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/service"
)

// newDirectFleet builds n in-process hosts behind a router (direct
// mode: every target carries a Server handle).
func newDirectFleet(t *testing.T, n int) (*Router, []*service.Server) {
	t.Helper()
	f := newFleet(t, n, func(int) bool { return false }, false)
	return f.rt, f.servers
}

// newHTTPFleet builds n hosts behind httptest servers and a router
// proxying to their URLs (daemon mode).
func newHTTPFleet(t testing.TB, n int) (*Router, []*service.Server, []*httptest.Server) {
	t.Helper()
	f := newFleet(t, n, func(int) bool { return true }, false)
	return f.rt, f.servers, f.backends
}

// idOwnedBy returns a run id the ring places on host k.
func idOwnedBy(t *testing.T, r *Ring, k int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		id := fmt.Sprintf("run-%d", i)
		if r.Owner(id) == k {
			return id
		}
	}
	t.Fatalf("no id owned by host %d in 100000 candidates", k)
	return ""
}

func createBody(t *testing.T, id string) *bytes.Reader {
	t.Helper()
	body, err := json.Marshal(service.CreateRunRequest{
		ID: id, Kernel: service.KernelOuter, Strategy: "2phases",
		N: 8, P: 4, Seed: 11, Batch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(body)
}

// createVia posts a pinned-id run through handler and fails the test
// on any non-201 answer.
func createVia(t *testing.T, handler http.Handler, id string) service.RunInfo {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/runs", createBody(t, id))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create %q: status %d, body %s", id, rec.Code, rec.Body)
	}
	var info service.RunInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// TestRouterCreatePlacement: runs created through the router land on
// exactly their ring owner — present in the owner's registry, absent
// everywhere else.
func TestRouterCreatePlacement(t *testing.T) {
	rt, servers := newDirectFleet(t, 4)
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("place-%d", i)
		createVia(t, rt, id)
		owner := rt.Ring().Owner(id)
		for h, srv := range servers {
			_, ok := srv.Registry().Get(id)
			if want := h == owner; ok != want {
				t.Errorf("run %q on host %d: present=%v, want %v (owner %d)", id, h, ok, want, owner)
			}
		}
	}
	// A router-minted id (no pin) must land on its own ring owner too.
	req := httptest.NewRequest(http.MethodPost, "/v1/runs",
		strings.NewReader(`{"kernel":"outer","n":4,"p":2,"seed":3}`))
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("unpinned create: status %d, body %s", rec.Code, rec.Body)
	}
	var info service.RunInfo
	json.Unmarshal(rec.Body.Bytes(), &info)
	if info.ID == "" {
		t.Fatal("router did not mint an id")
	}
	if _, ok := servers[rt.Ring().Owner(info.ID)].Registry().Get(info.ID); !ok {
		t.Errorf("minted run %q not on its ring owner", info.ID)
	}
}

// TestRouterCreateDuplicate409: a duplicate pinned id answers 409
// through the router, same as against a single host.
func TestRouterCreateDuplicate409(t *testing.T) {
	rt, _ := newDirectFleet(t, 3)
	createVia(t, rt, "dup-run")
	req := httptest.NewRequest(http.MethodPost, "/v1/runs", createBody(t, "dup-run"))
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict {
		t.Fatalf("duplicate create: status %d, want 409 (body %s)", rec.Code, rec.Body)
	}
}

// TestRouterUnknownRunPassThrough: a request for an id no host knows
// routes to the ring owner and passes the owner's 404 through
// unchanged — the router itself never synthesizes the answer.
func TestRouterUnknownRunPassThrough(t *testing.T) {
	run := func(t *testing.T, rt *Router) {
		for _, path := range []string{
			"/v1/runs/no-such-run", "/v1/runs/no-such-run/stats", "/v1/runs/no-such-run/trace",
		} {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			rt.ServeHTTP(rec, req)
			if rec.Code != http.StatusNotFound {
				t.Errorf("GET %s: status %d, want 404", path, rec.Code)
			}
			var e service.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "no-such-run") {
				t.Errorf("GET %s: body %q is not the host's unknown-run error", path, rec.Body)
			}
		}
	}
	t.Run("Direct", func(t *testing.T) {
		rt, _ := newDirectFleet(t, 4)
		run(t, rt)
	})
	t.Run("HTTP", func(t *testing.T) {
		rt, _, _ := newHTTPFleet(t, 4)
		run(t, rt)
	})
}

// TestRouterUnreachableHost503: when the owning host's daemon is down,
// the router answers a deterministic 503 with a Retry-After hint and a
// stable JSON body — not a raw transport error.
func TestRouterUnreachableHost503(t *testing.T) {
	rt, _, backends := newHTTPFleet(t, 4)
	const down = 2
	id := idOwnedBy(t, rt.Ring(), down)
	backends[down].Close()
	for i := 0; i < 2; i++ { // deterministic on every attempt, not just the first
		req := httptest.NewRequest(http.MethodGet, "/v1/runs/"+id+"/stats", nil)
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503 (body %s)", rec.Code, rec.Body)
		}
		if ra := rec.Header().Get("Retry-After"); ra != "1" {
			t.Errorf("Retry-After = %q, want \"1\"", ra)
		}
		var e service.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("503 body %q is not ErrorResponse JSON: %v", rec.Body, err)
		}
		if want := `schedd host "host-2" unreachable`; e.Error != want {
			t.Errorf("503 error = %q, want %q", e.Error, want)
		}
	}
}

// TestRouterRestartDeterminism: a second router over the same targets
// (same names, vnodes, epoch) reproduces every placement — restarts
// never strand runs.
func TestRouterRestartDeterminism(t *testing.T) {
	rt, servers := newDirectFleet(t, 4)
	targets := make([]Target, len(servers))
	for i := range servers {
		targets[i] = Target{Name: fmt.Sprintf("host-%d", i), Server: servers[i]}
	}
	rt2, err := NewRouter(targets, Options{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		id := fmt.Sprintf("restart-%d", i)
		if rt.Ring().Owner(id) != rt2.Ring().Owner(id) {
			t.Fatalf("restarted router moved %q: %d vs %d", id, rt.Ring().Owner(id), rt2.Ring().Owner(id))
		}
	}
}

// TestRouterContentNegotiation: both wire formats round-trip through
// the daemon-mode proxy — a JSON /next stays JSON, a binary frame
// /next comes back as a frame — because the router forwards bodies
// opaque and lets Content-Type/Accept travel with them.
func TestRouterContentNegotiation(t *testing.T) {
	rt, _, _ := newHTTPFleet(t, 3)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	id := "nego-run"
	createVia(t, rt, id)

	// JSON in, JSON out.
	resp, err := http.Post(ts.URL+"/v1/runs/"+id+"/next", "application/json",
		strings.NewReader(`{"worker":0}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("JSON next: status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var nr service.NextResponse
	if err := json.Unmarshal(body, &nr); err != nil || nr.Status != service.StatusOK || len(nr.Tasks) == 0 {
		t.Fatalf("JSON next response %q: %v", body, err)
	}

	// Frame in, frame out: complete the JSON grant and ask for more.
	// The router passes frames through opaque, so they are spelled out
	// here: magic "S1", type 1 (request), worker 1 (zigzag 2), no tasks.
	frame := []byte("S1\x01\x02\x00")
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs/"+id+"/next", bytes.NewReader(frame))
	req.Header.Set("Content-Type", service.ContentTypeFrame)
	req.Header.Set("Accept", service.ContentTypeFrame)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("Content-Type") != service.ContentTypeFrame {
		t.Fatalf("frame next: status %d content-type %q body %q", resp2.StatusCode, resp2.Header.Get("Content-Type"), body2)
	}
	// Magic, type 2 (response), status 1 (ok), a task count, the tasks
	// and blocks as varints, the lease as 8 bytes, and nothing after.
	rest, ok := bytes.CutPrefix(body2, []byte("S1\x02\x01"))
	n, k := binary.Uvarint(rest)
	for i := uint64(0); ok && k > 0 && i <= n; i++ {
		rest = rest[k:]
		_, k = binary.Uvarint(rest)
	}
	if !ok || n == 0 || k <= 0 || len(rest) != k+8 {
		t.Fatalf("frame next response %q: want an ok grant", body2)
	}
}

// TestRouterListMerged: GET /v1/runs through the router merges every
// host's listing into one creation-ordered list.
func TestRouterListMerged(t *testing.T) {
	rt, _ := newDirectFleet(t, 4)
	want := map[string]bool{}
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("list-%d", i)
		createVia(t, rt, id)
		want[id] = true
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/runs", nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	var list service.RunList
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != len(want) {
		t.Fatalf("merged list has %d runs, want %d", len(list.Runs), len(want))
	}
	for i, ri := range list.Runs {
		if !want[ri.ID] {
			t.Errorf("unexpected run %q in merged list", ri.ID)
		}
		if i > 0 && list.Runs[i-1].Created.After(ri.Created) {
			t.Errorf("merged list out of creation order at %d", i)
		}
	}
}

// TestRouterMetricsAggregation: /v1/metrics on the router sums the
// fleet's counters, reports the topology size, and labels each per-run
// row with its owning host.
func TestRouterMetricsAggregation(t *testing.T) {
	rt, _ := newDirectFleet(t, 4)
	ids := []string{"magg-0", "magg-1", "magg-2", "magg-3", "magg-4"}
	polls := 0
	for _, id := range ids {
		createVia(t, rt, id)
		req := httptest.NewRequest(http.MethodPost, "/v1/runs/"+id+"/next",
			strings.NewReader(`{"worker":0}`))
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("poll %q: status %d", id, rec.Code)
		}
		polls++
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	var m service.MetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Hosts != 4 || m.Runs != len(ids) || m.Polls != polls {
		t.Errorf("aggregate hosts=%d runs=%d polls=%d, want 4/%d/%d", m.Hosts, m.Runs, m.Polls, len(ids), polls)
	}
	if m.Assigned == 0 || m.BatchSizes == nil {
		t.Errorf("aggregate assigned=%d batch histogram=%v: counters did not fold", m.Assigned, m.BatchSizes)
	}
	for _, st := range m.PerRun {
		if want := fmt.Sprintf("host-%d", rt.Ring().Owner(st.ID)); st.Host != want {
			t.Errorf("run %q labeled host %q, want %q", st.ID, st.Host, want)
		}
	}
	// Prometheus rendering carries the topology gauge and host labels.
	req = httptest.NewRequest(http.MethodGet, "/v1/metrics?format=prometheus", nil)
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	text := rec.Body.String()
	if !strings.Contains(text, "schedd_hosts 4") {
		t.Errorf("prometheus output lacks schedd_hosts gauge:\n%s", text)
	}
	if !strings.Contains(text, `host="host-`) {
		t.Errorf("prometheus output lacks per-run host labels")
	}
}

// TestRouterToleratesNewerPeer: a peer one version ahead answers
// /v1/metrics and /v1/runs with a field this router does not know. The
// router must still count the peer in the fleet totals and list its
// runs, rather than drop it as unreachable.
func TestRouterToleratesNewerPeer(t *testing.T) {
	srv := service.New(service.Options{GCInterval: -1})
	t.Cleanup(srv.Close)
	newer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.Method == http.MethodGet && (r.URL.Path == "/v1/metrics" || r.URL.Path == "/v1/runs") {
			body = append([]byte(`{"added_later":1,`), body[1:]...)
		}
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(newer.Close)
	rt, err := NewRouter([]Target{{Name: "host-0", URL: newer.URL}}, Options{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	createVia(t, rt, "newer-0")

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var m service.MetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Runs != 1 || len(m.PerRun) != 1 || m.PerRun[0].Host != "host-0" {
		t.Errorf("fleet metrics runs=%d per_run=%+v, want the newer peer's one run on host-0", m.Runs, m.PerRun)
	}

	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs", nil))
	var list service.RunList
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 1 || list.Runs[0].ID != "newer-0" {
		t.Errorf("fleet run list %+v, want the newer peer's run newer-0", list.Runs)
	}
}

// TestRouterSSEResumeForward: Last-Event-ID travels through the proxy,
// so a reconnecting subscriber resumes the per-run stream mid-way —
// the first forwarded frame is the event after the cursor.
func TestRouterSSEResumeForward(t *testing.T) {
	rt, _, _ := newHTTPFleet(t, 3)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	id := "sse-run"
	createVia(t, rt, id)
	// Generate a few events past the run_created frame (seq 1).
	resp, err := http.Post(ts.URL+"/v1/runs/"+id+"/next", "application/json",
		strings.NewReader(`{"worker":0}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/runs/"+id+"/events?max=1", nil)
	req.Header.Set("Last-Event-ID", "1")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content-type %q, want text/event-stream", ct)
	}
	body, err := io.ReadAll(sresp.Body) // ?max=1 bounds the stream
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "id: 2\n") {
		t.Errorf("resume after seq 1 did not serve seq 2:\n%s", body)
	}
}

// TestRouterFirehoseFanIn: the router's /v1/events merges every
// host's firehose; events from runs on different hosts arrive on one
// stream.
func TestRouterFirehoseFanIn(t *testing.T) {
	rt, servers := newDirectFleet(t, 2)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	a := idOwnedBy(t, rt.Ring(), 0)
	b := idOwnedBy(t, rt.Ring(), 1)

	// The firehose is live-only: subscribe first, then generate events.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/events?max=2", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for servers[0].Bus().Subscribers() == 0 || servers[1].Bus().Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("firehose pumps never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	createVia(t, rt, a) // TypeRunCreated on host 0's bus
	createVia(t, rt, b) // TypeRunCreated on host 1's bus

	body, err := io.ReadAll(resp.Body) // max=2 bounds the merged stream
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, fmt.Sprintf("%q", a)) || !strings.Contains(text, fmt.Sprintf("%q", b)) {
		t.Errorf("fan-in stream missing a host's events:\n%s", text)
	}
}

// TestRouterLookupNextAllocFree pins the acceptance gate: the direct-
// mode poll-forwarding path — ring lookup, registry fetch, Host.Next —
// allocates nothing in steady state. This is the exact path the
// federated cluster harness (and the federated-4x25k row of
// internal/cluster's BenchmarkScenario) drives per poll.
func TestRouterLookupNextAllocFree(t *testing.T) {
	rt, _ := newDirectFleet(t, 4)
	const p = 8
	ids := []string{idOwnedBy(t, rt.Ring(), 0), idOwnedBy(t, rt.Ring(), 1),
		idOwnedBy(t, rt.Ring(), 2), idOwnedBy(t, rt.Ring(), 3)}
	pending := make([][][]core.Task, len(ids))
	for ri, id := range ids {
		body, _ := json.Marshal(service.CreateRunRequest{
			ID: id, Kernel: service.KernelOuter, N: 64, P: p, Seed: uint64(ri + 1), Batch: 2,
		})
		req := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			t.Fatalf("create %q: %d %s", id, rec.Code, rec.Body)
		}
		pending[ri] = make([][]core.Task, p)
	}
	i := 0
	poll := func() {
		ri := i % len(ids)
		w := (i / len(ids)) % p
		run, _, ok := rt.Lookup(ids[ri])
		if !ok {
			t.Fatalf("Lookup(%q) missed", ids[ri])
		}
		a, _, err := run.Host.Next(w, pending[ri][w])
		if err != nil {
			t.Fatal(err)
		}
		pending[ri][w] = a.Tasks
		i++
	}
	for j := 0; j < 2000; j++ { // steady state: every slab warmed
		poll()
	}
	if avg := testing.AllocsPerRun(500, poll); avg != 0 {
		t.Errorf("router Lookup+Next allocates %.2f objects/poll, want 0", avg)
	}
}

// TestRouterServeHTTPAllocParity: in direct mode the routed HTTP poll
// costs the same allocations as hitting the owning host directly —
// the router adds path slicing and a ring lookup, both free.
func TestRouterServeHTTPAllocParity(t *testing.T) {
	rt, servers := newDirectFleet(t, 4)
	id := idOwnedBy(t, rt.Ring(), 1)
	body, _ := json.Marshal(service.CreateRunRequest{
		ID: id, Kernel: service.KernelOuter, N: 64, P: 4, Seed: 7, Batch: 1,
	})
	req := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	nextBody := []byte(`{"worker":0}`)
	measure := func(h http.Handler) float64 {
		// Warm both arms identically before measuring.
		for j := 0; j < 200; j++ {
			r := httptest.NewRequest(http.MethodPost, "/v1/runs/"+id+"/next", bytes.NewReader(nextBody))
			h.ServeHTTP(httptest.NewRecorder(), r)
		}
		return testing.AllocsPerRun(300, func() {
			r := httptest.NewRequest(http.MethodPost, "/v1/runs/"+id+"/next", bytes.NewReader(nextBody))
			h.ServeHTTP(httptest.NewRecorder(), r)
		})
	}
	direct := measure(servers[1])
	routed := measure(rt)
	if routed > direct {
		t.Errorf("routed poll allocates %.2f objects vs %.2f direct: router added %.2f allocations",
			routed, direct, routed-direct)
	}
}
