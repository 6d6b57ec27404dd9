package federation

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hetsched/internal/pollserve"
	"hetsched/internal/service"
)

// loopPoll sends one poll through the router's loop entry and parses
// the response it appends.
func loopPoll(t testing.TB, rt *Router, id, body string) (status int, hdr http.Header, respBody string) {
	t.Helper()
	raw := rt.ServePoll(nil, &pollserve.Request{ID: id, ContentType: []byte("application/json"), Body: []byte(body)})
	resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(raw)), nil)
	if err != nil {
		t.Fatalf("ServePoll appended %q: %v", raw, err)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.ContentLength != int64(len(b)) || !bytes.HasSuffix(raw, b) {
		t.Fatalf("ServePoll appended %q: body %q under Content-Length %d (%v)", raw, b, resp.ContentLength, err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

// serveLoop serves h as cmd/schedd does, on ln or a fresh loopback
// listener, until the test ends or stop is called.
func serveLoop(t testing.TB, h pollserve.Handler, ln net.Listener) (addr string, stop func()) {
	t.Helper()
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	srv := pollserve.New(h)
	served := make(chan struct{})
	go func() { defer close(served); srv.Serve(ln) }()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// TestRouterLoopSharesTheHop: a poll that enters by ServePoll puts the
// request on the wire that the same poll puts there through ServeHTTP,
// and brings back the same answer, whatever its length.
func TestRouterLoopSharesTheHop(t *testing.T) {
	long := strings.Repeat("0123456789abcdef", 1024) // longer than the connection's reader
	replies := []string{
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 3\r\n\r\n{}\n",
		"HTTP/1.1 200 OK\r\nContent-Type: application/x-schedd-frame\r\nContent-Length: 16384\r\n\r\n" + long,
		"HTTP/1.1 409 Conflict\r\nContent-Type: application/json\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\nno",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
	}
	type seen struct {
		method, uri, host, ctype, accept, body string
	}
	got := make(chan seen, 1)
	var next atomic.Pointer[string] // what the peer answers with
	peer := newRawPeer(t, func(r *http.Request, conn net.Conn) bool {
		// newRawPeer has drained the body; its length is what framed it.
		got <- seen{r.Method, r.RequestURI, r.Host, r.Header.Get("Content-Type"), r.Header.Get("Accept"),
			strings.Repeat("x", int(r.ContentLength))}
		reply := *next.Load()
		io.WriteString(conn, reply)
		return !strings.Contains(reply, "Connection: close")
	})
	rt := routerOver(t, "http://"+peer.ln.Addr().String()+"/base", Options{})
	const body = `{"worker":3}`
	for i := range replies {
		next.Store(&replies[i])
		req, _ := http.NewRequest(http.MethodPost, "/v1/runs/r.1/next", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", "application/x-schedd-frame")
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		viaHTTP := <-got

		raw := rt.ServePoll(nil, &pollserve.Request{ID: "r.1", ContentType: []byte("application/json"),
			Accept: []byte("application/x-schedd-frame"), Body: []byte(body)})
		viaLoop := <-got
		if viaLoop != viaHTTP || viaLoop.uri != "/base/v1/runs/r.1/next" || len(viaLoop.body) != len(body) {
			t.Errorf("the peer saw %+v through the loop and %+v through net/http", viaLoop, viaHTTP)
		}
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(raw)), nil)
		if err != nil {
			t.Fatalf("ServePoll appended %.80q: %v", raw, err)
		}
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != rec.Code || !bytes.Equal(b, rec.Body.Bytes()) {
			t.Errorf("status %d body %.40q through the loop, %d %.40q through net/http", resp.StatusCode, b, rec.Code, rec.Body.Bytes())
		}
		for _, name := range []string{"Content-Type", "Content-Length", "Retry-After"} {
			if resp.Header.Get(name) != rec.Header().Get(name) {
				t.Errorf("%s: %q through the loop, %q through net/http", name, resp.Header.Get(name), rec.Header().Get(name))
			}
		}
	}
	up := rt.hop(0)
	if d, r, f := up.dials.Load(), up.reuses.Load(), up.failures.Load(); d != 2 || r != 2*uint64(len(replies))-2 || f != 0 {
		t.Errorf("dials=%d reuses=%d failures=%d, want 2 (one after Connection: close), %d and 0", d, r, f, 2*len(replies)-2)
	}
	if got := rt.loopPolls.Load(); got != uint64(len(replies)) {
		t.Errorf("loop polls = %d, want %d", got, len(replies))
	}
}

// TestRouterLoopPeerFailures: the hop's rule holds for a poll that came
// by the loop — whatever the peer does after it has taken the request
// costs the client a 503 with a retry hint and the peer exactly one
// request — and so does an answer the loop cannot relay whole.
func TestRouterLoopPeerFailures(t *testing.T) {
	for _, c := range []struct{ name, partial string }{
		{"before the head", ""},
		{"inside the head", "HTTP/1.1 200 OK\r\nContent-Le"},
		{"inside a short body", "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"status\":"},
		{"inside a long body", "HTTP/1.1 200 OK\r\nContent-Length: 10000\r\n\r\n{\"status\":"},
		{"not http", "SSH-2.0-OpenSSH_9.6\r\n"},
		{"a chunked answer", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n"},
		{"an answer without a length", "HTTP/1.1 200 OK\r\n\r\nok"},
		{"an answer over the bound", "HTTP/1.1 200 OK\r\nContent-Length: 1048577\r\n\r\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			peer := newRawPeer(t, func(_ *http.Request, conn net.Conn) bool {
				io.WriteString(conn, c.partial)
				return false
			})
			rt := routerOver(t, "http://"+peer.ln.Addr().String(), Options{})
			status, hdr, body := loopPoll(t, rt, "r", `{"worker":0}`)
			if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") != "1" {
				t.Fatalf("status %d Retry-After %q, want 503 and 1 (body %s)", status, hdr.Get("Retry-After"), body)
			}
			var e service.ErrorResponse
			if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error != `schedd host "host-0" unreachable` {
				t.Errorf("body %q is not the unreachable answer (%v)", body, err)
			}
			if got := peer.requests.Load(); got != 1 {
				t.Errorf("peer saw %d requests, want exactly 1", got)
			}
			if f := rt.hop(0).failures.Load(); f != 1 {
				t.Errorf("failures = %d, want 1", f)
			}
			if n := len(rt.hop(0).idle); n != 0 {
				t.Errorf("%d pooled connections after a failure, want 0", n)
			}
		})
	}
}

// TestRouterLoopPeerRestart is TestRouterProxyPeerRestart with both
// daemons served as cmd/schedd serves them: the host's Shutdown closes
// the connection the router pools, the router finds it closed before it
// writes the next poll, and the poll costs a re-dial, not a 503.
func TestRouterLoopPeerRestart(t *testing.T) {
	srv := service.New(service.Options{GCInterval: -1})
	t.Cleanup(srv.Close)
	addr, stop := serveLoop(t, srv, nil)
	rt := routerOver(t, "http://"+addr, Options{})
	createVia(t, srv, "restart")
	if status, _, body := loopPoll(t, rt, "restart", `{"worker":0}`); status != http.StatusOK {
		t.Fatalf("first poll: status %d body %s", status, body)
	}
	stop()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	serveLoop(t, srv, ln)
	if status, _, body := loopPoll(t, rt, "restart", `{"worker":1}`); status != http.StatusOK {
		t.Fatalf("poll after the restart: status %d body %s", status, body)
	}
	up := rt.hop(0)
	if d, r, s, f := up.dials.Load(), up.reuses.Load(), up.stale.Load(), up.failures.Load(); d != 2 || r != 0 || s != 1 || f != 0 {
		t.Errorf("dials=%d reuses=%d stale=%d failures=%d, want 2, 0, 1 and 0", d, r, s, f)
	}
	if got := srv.Metrics().LoopPolls; got != 2 {
		t.Errorf("the host's loop answered %d polls, want 2", got)
	}
}

// TestRouterCreateKeepsPollsOnTheLoop: a host's request loop hands a
// connection to net/http for good at its first request that is not a
// poll, so the hop keeps those requests — a create through the router,
// a stats read — on connections of their own, and every poll on the
// pooled poll connection is still answered by the loop.
func TestRouterCreateKeepsPollsOnTheLoop(t *testing.T) {
	srv := service.New(service.Options{GCInterval: -1})
	t.Cleanup(srv.Close)
	addr, _ := serveLoop(t, srv, nil)
	rt := routerOver(t, "http://"+addr, Options{})
	createVia(t, rt, "on-the-loop")
	for w := 0; w < 3; w++ {
		if status, _, body := loopPoll(t, rt, "on-the-loop", fmt.Sprintf(`{"worker":%d}`, w)); status != http.StatusOK {
			t.Fatalf("poll %d: status %d body %s", w, status, body)
		}
		if w == 1 {
			if rec := poll(rt, http.MethodGet, "/v1/runs/on-the-loop/stats", ""); rec.Code != http.StatusOK {
				t.Fatalf("stats: status %d body %s", rec.Code, rec.Body)
			}
		}
	}
	up := rt.hop(0)
	if d, r := up.dials.Load(), up.reuses.Load(); d != 2 || r != 3 {
		t.Errorf("dials=%d reuses=%d, want 2 (one per class) and 3", d, r)
	}
	if got := srv.Metrics().LoopPolls; got != 3 {
		t.Errorf("the host's loop answered %d polls, want 3", got)
	}
}

// TestRouterLoopRefusals: the router's own answers to a poll are the
// same through the loop as through ServeHTTP — a run mid-handoff, a host
// that is down — and an in-process host is handed the poll as it came.
func TestRouterLoopRefusals(t *testing.T) {
	rt, servers := newDirectFleet(t, 2)
	createVia(t, rt, "direct")
	if status, _, body := loopPoll(t, rt, "direct", `{"worker":0}`); status != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("direct mode: status %d body %s", status, body)
	}
	if n := servers[0].Metrics().LoopPolls + servers[1].Metrics().LoopPolls; n != 1 {
		t.Errorf("the hosts' ServePoll answered %d polls, want 1", n)
	}

	moving := map[string]bool{"direct": true}
	rt.moving.Store(&moving)
	rec := poll(rt, http.MethodPost, "/v1/runs/direct/next", `{"worker":0}`)
	status, hdr, body := loopPoll(t, rt, "direct", `{"worker":0}`)
	if status != http.StatusServiceUnavailable || status != rec.Code || body != rec.Body.String() ||
		hdr.Get("Retry-After") != "1" || hdr.Get("Retry-After") != rec.Header().Get("Retry-After") {
		t.Errorf("mid-handoff: %d %q Retry-After %q through the loop, %d %q %q through net/http",
			status, body, hdr.Get("Retry-After"), rec.Code, rec.Body, rec.Header().Get("Retry-After"))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // nobody listens there now
	down := routerOver(t, "http://"+ln.Addr().String(), Options{RetryAfter: 2500 * time.Millisecond})
	rec = poll(down, http.MethodPost, "/v1/runs/r/next", `{"worker":0}`)
	status, hdr, body = loopPoll(t, down, "r", `{"worker":0}`)
	if status != http.StatusServiceUnavailable || status != rec.Code || body != rec.Body.String() ||
		hdr.Get("Retry-After") != "3" || hdr.Get("Retry-After") != rec.Header().Get("Retry-After") {
		t.Errorf("host down: %d %q Retry-After %q through the loop, %d %q %q through net/http",
			status, body, hdr.Get("Retry-After"), rec.Code, rec.Body, rec.Header().Get("Retry-After"))
	}
	if f := down.hop(0).failures.Load(); f != 2 {
		t.Errorf("failures = %d, want 2", f)
	}
}

// loopAllocCeiling bounds the allocations of one poll carried by both
// loops — the router's ServePoll, the hop, the host's loop and its
// ServePoll, all in this process. Measured: 2, the two response header
// values the hop keeps, Content-Type and Content-Length (4 to 5 under
// -race, where sync.Pool drops a share of what is put back); through
// ServeHTTP and a net/http peer the same poll makes 32
// (proxyAllocCeiling).
const loopAllocCeiling = 6

func TestRouterLoopAllocs(t *testing.T) {
	srv := service.New(service.Options{GCInterval: -1})
	t.Cleanup(srv.Close)
	addr, _ := serveLoop(t, srv, nil)
	rt := routerOver(t, "http://"+addr, Options{})
	create, _ := json.Marshal(service.CreateRunRequest{ID: "allocs", Kernel: service.KernelOuter, Strategy: "random", N: 64, P: 4, Seed: 7, Batch: 1})
	if rec := poll(rt, http.MethodPost, "/v1/runs", string(create)); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	// One worker drains the run, reporting in each poll the batch the
	// last one granted; the request is rebuilt in place.
	req := pollserve.Request{ID: "allocs", ContentType: []byte("application/json")}
	var dst []byte
	do := func() {
		req.Body = append(req.Body[:0], `{"worker":0,"completed":[`...)
		if _, tasks, ok := bytes.Cut(dst, []byte(`"tasks":[`)); ok {
			req.Body = append(req.Body, tasks[:bytes.IndexByte(tasks, ']')]...)
		}
		req.Body = append(req.Body, "]}"...)
		dst = rt.ServePoll(dst[:0], &req)
	}
	for i := 0; i < 200; i++ {
		do()
	}
	if avg := testing.AllocsPerRun(500, do); avg > loopAllocCeiling {
		t.Errorf("a poll through both loops allocates %.1f objects, ceiling %d", avg, loopAllocCeiling)
	} else {
		t.Logf("%.1f allocations per poll through both loops", avg)
	}
	if !bytes.HasPrefix(dst, []byte("HTTP/1.1 200 OK\r\n")) || !bytes.Contains(dst, []byte(`{"status":"ok","tasks":[`)) {
		t.Fatalf("last poll answered %q, want a grant", dst)
	}
}

// TestQuietWithin pins the portable idle check on the platform the
// tests run on, where the hop does not use it: an open and silent
// connection is quiet, and stays usable; one the peer closed, or wrote
// to unasked, is not.
func TestQuietWithin(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	pair := func() (client, server net.Conn) {
		client, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		server, err = ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close(); server.Close() })
		return client, server
	}
	const wait = time.Millisecond

	c, s := pair()
	if !quietWithin(c, wait) || !quietWithin(c, wait) {
		t.Error("an open, silent connection is not quiet")
	}
	io.WriteString(s, "x")
	var b [1]byte
	if _, err := io.ReadFull(c, b[:]); err != nil { // and waits for the byte: no deadline is left behind
		t.Errorf("reading after the check: %v", err)
	}

	c, s = pair()
	s.Close()
	for i := 0; quietWithin(c, wait); i++ { // the close is on its way
		if i == 1000 {
			t.Fatal("a connection the peer closed stays quiet")
		}
	}

	c, s = pair()
	io.WriteString(s, "unasked")
	for i := 0; quietWithin(c, wait); i++ {
		if i == 1000 {
			t.Fatal("a connection with a byte to read stays quiet")
		}
	}
}
