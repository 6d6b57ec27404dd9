package federation

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsched/internal/pollserve"
	"hetsched/internal/service"
)

// headEnd is the test's own notion of where a response head ends: after
// the first empty line that follows the status line. -1 when there is
// none.
func headEnd(b []byte) int {
	for off, first := 0, true; ; first = false {
		nl := bytes.IndexByte(b[off:], '\n')
		if nl < 0 {
			return -1
		}
		line := bytes.TrimSuffix(b[off:off+nl], []byte("\r"))
		off += nl + 1
		if len(line) == 0 && !first {
			return off
		}
	}
}

// parseHead runs readRespHead over raw and reports how many bytes of
// raw it consumed.
func parseHead(raw []byte) (respHead, int, error) {
	src := bytes.NewReader(raw)
	br := bufio.NewReader(src)
	h, err := readRespHead(br)
	return h, len(raw) - src.Len() - br.Buffered(), err
}

func TestUpstreamResponseHead(t *testing.T) {
	long := strings.Repeat("x", 5000)
	many := strings.Repeat("X-Pad: "+strings.Repeat("y", 1000)+"\r\n", 20)
	cases := []struct {
		name    string
		raw     string
		wantErr bool
		status  int
		length  int64
		chunked bool
		close   bool
		ctype   string // forwarded Content-Type
		clen    string // forwarded Content-Length
	}{
		{name: "content-length", raw: "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\nhello",
			status: 200, length: 5, ctype: "application/json", clen: "5"},
		{name: "case and padding", raw: "HTTP/1.1 200 OK\r\ncontent-LENGTH:   7 \t\r\nRETRY-after:3\r\n\r\n", status: 200, length: 7, clen: "7"},
		{name: "bare LF", raw: "HTTP/1.1 404 Not Found\nContent-Length: 0\n\nrest", status: 404, length: 0, clen: "0"},
		{name: "no reason phrase", raw: "HTTP/1.1 200\r\nContent-Length: 1\r\n\r\nx", status: 200, length: 1, clen: "1"},
		{name: "chunked", raw: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", status: 200, length: -1, chunked: true},
		{name: "chunked overrides length", raw: "HTTP/1.1 200 OK\r\nContent-Length: 9\r\nTransfer-Encoding: Chunked\r\n\r\n", status: 200, length: -1, chunked: true},
		{name: "read to close", raw: "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nuntil the end", status: 200, length: -1, ctype: "text/plain"},
		{name: "connection close", raw: "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", status: 200, length: 2, close: true, clen: "2"},
		{name: "connection token list", raw: "HTTP/1.1 200 OK\r\nConnection: foo, Close\r\nContent-Length: 0\r\n\r\n", status: 200, length: 0, close: true, clen: "0"},
		{name: "http/1.0 closes", raw: "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", status: 200, length: 2, close: true, clen: "2"},
		{name: "http/1.0 keep-alive", raw: "HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok", status: 200, length: 2, clen: "2"},
		{name: "204", raw: "HTTP/1.1 204 No Content\r\n\r\nHTTP/1.1 200 OK\r\n", status: 204, length: -1},
		{name: "repeated equal length", raw: "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc", status: 200, length: 3, clen: "3"},
		{name: "repeated unequal length", raw: "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabc", wantErr: true},
		{name: "negative length", raw: "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", wantErr: true},
		{name: "huge length", raw: "HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n", wantErr: true},
		{name: "unknown transfer coding", raw: "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n", wantErr: true},
		{name: "interim response", raw: "HTTP/1.1 100 Continue\r\n\r\n", wantErr: true},
		{name: "http/2 status line", raw: "HTTP/2.0 200 OK\r\n\r\n", wantErr: true},
		{name: "status not digits", raw: "HTTP/1.1 2x0 OK\r\n\r\n", wantErr: true},
		{name: "status runs on", raw: "HTTP/1.1 2000 OK\r\n\r\n", wantErr: true},
		{name: "folded header", raw: "HTTP/1.1 200 OK\r\nX-A: b\r\n c\r\n\r\n", wantErr: true},
		{name: "header without colon", raw: "HTTP/1.1 200 OK\r\nnonsense\r\n\r\n", wantErr: true},
		{name: "oversized line", raw: "HTTP/1.1 200 OK\r\nX-Pad: " + long + "\r\n\r\n", wantErr: true},
		{name: "oversized head", raw: "HTTP/1.1 200 OK\r\n" + many + "\r\n", wantErr: true},
		{name: "truncated", raw: "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n", wantErr: true},
		{name: "empty", raw: "", wantErr: true},
		{name: "garbage", raw: "\x00\xff\x16\x03\x01 not http at all\n\n", wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h, used, err := parseHead([]byte(c.raw))
			if c.wantErr {
				if err == nil {
					t.Fatalf("parsed %+v, want an error", h)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if h.status != c.status || h.length != c.length || h.chunked != c.chunked || h.close != c.close {
				t.Errorf("status=%d length=%d chunked=%v close=%v, want %d %d %v %v",
					h.status, h.length, h.chunked, h.close, c.status, c.length, c.chunked, c.close)
			}
			if h.fwd[contentTypeIdx] != c.ctype || h.fwd[contentLengthIdx] != c.clen {
				t.Errorf("forwards Content-Type %q Content-Length %q, want %q %q",
					h.fwd[contentTypeIdx], h.fwd[contentLengthIdx], c.ctype, c.clen)
			}
			if want := headEnd([]byte(c.raw)); used != want {
				t.Errorf("consumed %d bytes, head ends at %d", used, want)
			}
		})
	}
}

// FuzzUpstreamResponseHead: whatever a peer sends, the head parser
// returns (no panic), and when it accepts a head it has consumed that
// head and not one byte of what follows.
func FuzzUpstreamResponseHead(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\nhello"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"))
	f.Add([]byte("HTTP/1.0 503 Service Unavailable\nRetry-After: 1\nConnection: keep-alive\n\n"))
	f.Add([]byte("HTTP/1.1 204 No Content\r\n\r\nHTTP/1.1 200 OK\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n"))
	f.Add([]byte("\x16\x03\x01\x02\x00\x01\x00\x01\xfc\x03\x03"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		h, used, err := parseHead(raw)
		if err != nil {
			return
		}
		if want := headEnd(raw); used != want {
			t.Fatalf("consumed %d bytes of %q, head ends at %d", used, raw, want)
		}
		if h.status < 200 || h.status > 999 || h.length < -1 || (h.chunked && h.length != -1) {
			t.Fatalf("accepted %+v from %q", h, raw)
		}
	})
}

// rawPeer is a peer the test scripts byte by byte: it parses requests
// off every connection it accepts, counts them, and lets respond write
// whatever it likes; respond returns whether to keep the connection.
type rawPeer struct {
	ln       net.Listener
	requests atomic.Int64
	conns    atomic.Int64
}

func newRawPeer(t *testing.T, respond func(r *http.Request, c net.Conn) (keep bool)) *rawPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &rawPeer{ln: ln}
	var wg sync.WaitGroup
	var mu sync.Mutex
	open := map[net.Conn]bool{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.conns.Add(1)
			mu.Lock()
			open[c] = true
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					r, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.Copy(io.Discard, r.Body)
					p.requests.Add(1)
					if !respond(r, c) {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for c := range open {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return p
}

// routerOver fronts one URL target, so every run id routes to it.
func routerOver(t *testing.T, url string, opts Options) *Router {
	t.Helper()
	rt, err := NewRouter([]Target{{Name: "host-0", URL: url}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// hop is the upstream of URL target i.
func (rt *Router) hop(i int) *upstream { return rt.peers[i].(*remote).upstream }

func poll(rt http.Handler, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	return rec
}

// TestRouterProxyFraming: every way a peer may frame an answer reaches
// the client whole, and the connection is reused exactly when the
// framing leaves it reusable (two requests, so one or two dials).
func TestRouterProxyFraming(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 1024) // longer than the connection's reader
	cases := []struct {
		name      string
		method    string
		reply     string
		keep      bool // whether the peer leaves the connection open
		status    int
		body      string
		header    [2]string // one forwarded header and its value
		wantDials uint64
	}{
		{name: "content-length", reply: "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 3\r\n\r\n{}\n",
			keep: true, status: 200, body: "{}\n", header: [2]string{"Content-Type", "application/json"}, wantDials: 1},
		{name: "long content-length", reply: "HTTP/1.1 200 OK\r\nContent-Length: 16384\r\n\r\n" + big,
			keep: true, status: 200, body: big, header: [2]string{"Content-Length", "16384"}, wantDials: 1},
		{name: "chunked with trailer", reply: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n4\r\ndefg\r\n0\r\nX-Trailer: t\r\n\r\n",
			keep: true, status: 200, body: "abcdefg", wantDials: 1},
		{name: "read to close", reply: "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nall of it", status: 200, body: "all of it", wantDials: 2},
		{name: "connection close", reply: "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", status: 200, body: "ok", wantDials: 2},
		{name: "http/1.0", reply: "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", status: 200, body: "ok", wantDials: 2},
		{name: "204", reply: "HTTP/1.1 204 No Content\r\n\r\n", keep: true, status: 204, wantDials: 1},
		{name: "304 with a length", reply: "HTTP/1.1 304 Not Modified\r\nContent-Length: 10\r\n\r\n", keep: true, status: 304, wantDials: 1},
		{name: "head", method: http.MethodHead, reply: "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n", keep: true, status: 200,
			header: [2]string{"Content-Length", "10"}, wantDials: 1},
		{name: "503 passes with its hint", reply: "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 7\r\nContent-Length: 2\r\n\r\nno",
			keep: true, status: 503, body: "no", header: [2]string{"Retry-After", "7"}, wantDials: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			peer := newRawPeer(t, func(_ *http.Request, conn net.Conn) bool {
				io.WriteString(conn, c.reply)
				return c.keep
			})
			rt := routerOver(t, "http://"+peer.ln.Addr().String(), Options{})
			method := c.method
			if method == "" {
				method = http.MethodPost
			}
			for i := 0; i < 2; i++ {
				rec := poll(rt, method, "/v1/runs/r/next", "")
				if rec.Code != c.status || rec.Body.String() != c.body {
					t.Fatalf("request %d: status %d body %.40q, want %d %.40q", i, rec.Code, rec.Body, c.status, c.body)
				}
				if c.header[0] != "" && rec.Header().Get(c.header[0]) != c.header[1] {
					t.Errorf("request %d: %s = %q, want %q", i, c.header[0], rec.Header().Get(c.header[0]), c.header[1])
				}
			}
			if got := rt.hop(0).dials.Load(); got != c.wantDials {
				t.Errorf("%d dials for two requests, want %d", got, c.wantDials)
			}
			if got := peer.requests.Load(); got != 2 {
				t.Errorf("peer saw %d requests, want 2", got)
			}
		})
	}
}

// TestRouterProxyRequestOnTheWire: what the peer receives is the
// client's request — method, path and query under the target's base
// path, the whitelisted headers, the body under a Content-Length.
func TestRouterProxyRequestOnTheWire(t *testing.T) {
	type seen struct {
		method, uri, host, ctype, cursor, extra string
		length                                  int64
	}
	got := make(chan seen, 2) // one per request below
	peer := newRawPeer(t, func(r *http.Request, conn net.Conn) bool {
		got <- seen{r.Method, r.RequestURI, r.Host, r.Header.Get("Content-Type"), r.Header.Get("Last-Event-ID"),
			r.Header.Get("X-Private"), r.ContentLength}
		io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
		return true
	})
	addr := peer.ln.Addr().String()
	rt := routerOver(t, "http://"+addr+"/base/", Options{})

	req := httptest.NewRequest(http.MethodPost, "/v1/runs/r/next", strings.NewReader(`{"worker":3}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Private", "stays here")
	rt.ServeHTTP(httptest.NewRecorder(), req)
	if s, want := <-got, (seen{"POST", "/base/v1/runs/r/next", addr, "application/json", "", "", 12}); s != want {
		t.Errorf("peer saw %+v, want %+v", s, want)
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/runs/r/events?after=2&max=1", nil)
	req.Header.Set("Last-Event-ID", "2")
	rt.ServeHTTP(httptest.NewRecorder(), req)
	if s, want := <-got, (seen{"GET", "/base/v1/runs/r/events?after=2&max=1", addr, "", "2", "", 0}); s != want {
		t.Errorf("peer saw %+v, want %+v", s, want)
	}
}

// countingConn counts the Write calls of an upstream connection.
type countingConn struct {
	*net.TCPConn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.TCPConn.Write(b)
}

// TestRouterProxyOneWritePerPoll pins the point of the hop: a forwarded
// poll, head and body, leaves in one Write.
func TestRouterProxyOneWritePerPoll(t *testing.T) {
	rt, servers, _ := newHTTPFleet(t, 1)
	var writes atomic.Int64
	up := rt.hop(0)
	dial := up.dial
	up.dial = func(network, addr string) (net.Conn, error) {
		c, err := dial(network, addr)
		if err != nil {
			return nil, err
		}
		return countingConn{c.(*net.TCPConn), &writes}, nil
	}
	createVia(t, servers[0], "one-write")
	const polls = 50
	for i := 0; i < polls; i++ {
		if rec := poll(rt, http.MethodPost, "/v1/runs/one-write/next", `{"worker":0}`); rec.Code != http.StatusOK {
			t.Fatalf("poll %d: status %d body %s", i, rec.Code, rec.Body)
		}
	}
	if got := writes.Load(); got != polls {
		t.Errorf("%d writes for %d forwarded polls, want one each", got, polls)
	}
	if d, r := up.dials.Load(), up.reuses.Load(); d != 1 || r != polls-1 {
		t.Errorf("dials=%d reuses=%d, want 1 and %d", d, r, polls-1)
	}
}

// TestRouterProxyPeerDropsMidResponse: a peer that dies after it has
// taken the request — before the head, inside the head, inside the
// body — costs the client a 503 with a retry hint and the peer exactly
// one request: the router must not send a poll twice.
func TestRouterProxyPeerDropsMidResponse(t *testing.T) {
	for _, c := range []struct{ name, partial string }{
		{"before the head", ""},
		{"inside the head", "HTTP/1.1 200 OK\r\nContent-Le"},
		{"inside the body", "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"status\":"},
		{"not http", "SSH-2.0-OpenSSH_9.6\r\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			peer := newRawPeer(t, func(_ *http.Request, conn net.Conn) bool {
				io.WriteString(conn, c.partial)
				return false
			})
			rt := routerOver(t, "http://"+peer.ln.Addr().String(), Options{})
			rec := poll(rt, http.MethodPost, "/v1/runs/r/next", `{"worker":0}`)
			if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "1" {
				t.Fatalf("status %d Retry-After %q, want 503 and 1 (body %s)", rec.Code, rec.Header().Get("Retry-After"), rec.Body)
			}
			var e service.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != `schedd host "host-0" unreachable` {
				t.Errorf("body %q is not the unreachable answer (%v)", rec.Body, err)
			}
			if got := peer.requests.Load(); got != 1 {
				t.Errorf("peer saw %d requests, want exactly 1", got)
			}
			if f := rt.hop(0).failures.Load(); f != 1 {
				t.Errorf("failures = %d, want 1", f)
			}
		})
	}
}

// TestRouterProxyPeerRestart: a peer restarted between two polls costs
// a re-dial, not a 503 — the pooled connection it closed is found
// before the second poll is written — and GET /v1/ring says so.
func TestRouterProxyPeerRestart(t *testing.T) {
	srv := service.New(service.Options{GCInterval: -1})
	t.Cleanup(srv.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	start := func(ln net.Listener) *httptest.Server {
		ts := httptest.NewUnstartedServer(srv)
		ts.Listener.Close()
		ts.Listener = ln
		ts.Start()
		return ts
	}
	ts := start(ln)
	rt := routerOver(t, "http://"+addr, Options{})
	createVia(t, srv, "restart")
	if rec := poll(rt, http.MethodPost, "/v1/runs/restart/next", `{"worker":0}`); rec.Code != http.StatusOK {
		t.Fatalf("first poll: status %d body %s", rec.Code, rec.Body)
	}
	ts.Close() // closes the listener and the idle connection the router pools
	if ln, err = net.Listen("tcp", addr); err != nil {
		t.Fatal(err)
	}
	ts = start(ln)
	t.Cleanup(ts.Close)
	if rec := poll(rt, http.MethodPost, "/v1/runs/restart/next", `{"worker":1}`); rec.Code != http.StatusOK {
		t.Fatalf("poll after the restart: status %d body %s", rec.Code, rec.Body)
	}

	rec := poll(rt, http.MethodGet, "/v1/ring", "")
	var st RingStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	// The run is created on the host itself, the two polls go through the hop.
	want := []UpstreamStatus{{Host: "host-0", Dials: 2, Reuses: 0, Stale: 1, Failures: 0}}
	if len(st.Upstream) != 1 || st.Upstream[0] != want[0] {
		t.Errorf("/v1/ring upstream = %+v, want %+v", st.Upstream, want)
	}
}

// TestRouterProxyBodyCap: a body over pollserve.MaxBody answers 413, length
// declared or not, and nothing reaches the peer.
func TestRouterProxyBodyCap(t *testing.T) {
	peer := newRawPeer(t, func(_ *http.Request, conn net.Conn) bool {
		io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
		return true
	})
	rt := routerOver(t, "http://"+peer.ln.Addr().String(), Options{})
	body := strings.Repeat("x", pollserve.MaxBody+1)
	for _, declared := range []bool{true, false} {
		req := httptest.NewRequest(http.MethodPost, "/v1/runs/r/next", strings.NewReader(body))
		if !declared {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("declared=%v: status %d, want 413", declared, rec.Code)
		}
	}
	if rec := poll(rt, http.MethodPost, "/v1/runs/r/next", body[:pollserve.MaxBody]); rec.Code != http.StatusOK {
		t.Errorf("a body of exactly the cap: status %d, want 200", rec.Code)
	}
	if got := peer.requests.Load(); got != 1 {
		t.Errorf("peer saw %d requests, want 1", got)
	}
}

// TestRouterProxyHTTPSTarget: an https:// target is dialed with
// crypto/tls and its defaults — so a peer whose certificate no root
// vouches for is unreachable, as it was to the default client.
func TestRouterProxyHTTPSTarget(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.NotFoundHandler())
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the refused handshake
	ts.StartTLS()
	t.Cleanup(ts.Close)
	rt := routerOver(t, ts.URL, Options{})
	if rt.hop(0).tls == nil {
		t.Fatalf("target %s not dialed with TLS", ts.URL)
	}
	if rec := poll(rt, http.MethodGet, "/v1/runs/r/stats", ""); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status %d through an unverifiable certificate, want 503", rec.Code)
	}
	for _, bad := range []string{"ftp://h:1", "http://", "h:8080", "http://h:1/?q=1"} {
		if _, err := NewRouter([]Target{{URL: bad}}, Options{}); err == nil {
			t.Errorf("NewRouter accepted target URL %q", bad)
		}
	}
}

// TestRouterSSEClientDisconnect: when the subscriber of a forwarded
// event stream goes away, the router closes the upstream connection at
// once (the peer sees its request cancelled, well before any heartbeat
// would have told the router) and no goroutine stays behind.
func TestRouterSSEClientDisconnect(t *testing.T) {
	peerGone := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, "id: 1\ndata: {}\n\n")
		w.(http.Flusher).Flush()
		<-r.Context().Done()
		close(peerGone)
	}))
	t.Cleanup(peer.Close)
	rt := routerOver(t, peer.URL, Options{})
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	before := runtime.NumGoroutine()

	tr := &http.Transport{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+"/v1/runs/r/events", nil)
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, len("id: 1\ndata: {}\n\n"))
	if _, err := io.ReadFull(resp.Body, frame); err != nil || string(frame) != "id: 1\ndata: {}\n\n" {
		t.Fatalf("first frame %q: %v (it must arrive while the stream is open)", frame, err)
	}
	cancel()
	resp.Body.Close()
	tr.CloseIdleConnections()

	select {
	case <-peerGone:
	case <-time.After(5 * time.Second):
		t.Fatal("the upstream connection stayed open after the subscriber left")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the stream:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
	if n := len(rt.hop(0).idle) + len(rt.hop(0).cold); n != 0 {
		t.Errorf("%d pooled connections after an abandoned stream, want 0", n)
	}
}

// TestRouterProxyHammer: many goroutines poll through one router at
// once; every poll is answered, the peer has executed exactly as many
// requests as were sent, and the pool stays within its bound.
func TestRouterProxyHammer(t *testing.T) {
	peer := newRawPeer(t, func(r *http.Request, conn net.Conn) bool {
		fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			len(r.URL.Path), r.URL.Path)
		return true
	})
	rt := routerOver(t, "http://"+peer.ln.Addr().String(), Options{})
	const workers, each = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := fmt.Sprintf("/v1/runs/run-%d/next", g)
			for i := 0; i < each; i++ {
				// Each answer must be this request's own, not a neighbour's.
				if rec := poll(rt, http.MethodPost, path, `{"worker":0}`); rec.Code != http.StatusOK || rec.Body.String() != path {
					t.Errorf("goroutine %d poll %d: status %d body %q", g, i, rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	up := rt.hop(0)
	if got := peer.requests.Load(); got != workers*each {
		t.Errorf("peer executed %d requests, want exactly %d", got, workers*each)
	}
	if d, r := up.dials.Load(), up.reuses.Load(); d+r != workers*each || d > workers || d != uint64(peer.conns.Load()) {
		t.Errorf("dials=%d reuses=%d peer connections=%d, want dials+reuses=%d and at most %d dials",
			d, r, peer.conns.Load(), workers*each, workers)
	}
	if s, f := up.stale.Load(), up.failures.Load(); s != 0 || f != 0 {
		t.Errorf("stale=%d failures=%d on a healthy peer, want 0 and 0", s, f)
	}
	if n := len(up.idle); n == 0 || n > maxIdleConns {
		t.Errorf("%d pooled connections, want 1..%d", n, maxIdleConns)
	}
}

// reusedPoll is a forwarded poll with nothing of its own to allocate:
// one request, one body reader and one response writer, reset per call.
type reusedPoll struct {
	rt     *Router
	req    *http.Request
	body   bytes.Reader
	raw    []byte
	hdr    http.Header
	status int
}

func (p *reusedPoll) Header() http.Header         { return p.hdr }
func (p *reusedPoll) WriteHeader(status int)      { p.status = status }
func (p *reusedPoll) Write(b []byte) (int, error) { return len(b), nil }
func (p *reusedPoll) Read(b []byte) (int, error)  { return p.body.Read(b) }
func (p *reusedPoll) Close() error                { return nil }

func (p *reusedPoll) do() {
	p.body.Reset(p.raw)
	clear(p.hdr)
	p.rt.ServeHTTP(p, p.req)
}

func newReusedPoll(tb testing.TB) *reusedPoll {
	rt, _, _ := newHTTPFleet(tb, 1)
	create, _ := json.Marshal(service.CreateRunRequest{ID: "allocs", Kernel: service.KernelOuter, N: 64, P: 4, Seed: 7, Batch: 1})
	if rec := poll(rt, http.MethodPost, "/v1/runs", string(create)); rec.Code != http.StatusCreated {
		tb.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	p := &reusedPoll{rt: rt, raw: []byte(`{"worker":0}`), hdr: http.Header{}}
	p.req = httptest.NewRequest(http.MethodPost, "/v1/runs/allocs/next", nil)
	p.req.Header.Set("Content-Type", "application/json")
	p.req.Body, p.req.ContentLength = p, int64(len(p.raw))
	for i := 0; i < 200; i++ {
		if p.do(); p.status != http.StatusOK {
			tb.Fatalf("warm-up poll %d: status %d", i, p.status)
		}
	}
	return p
}

// proxyAllocCeiling bounds the allocations of one forwarded JSON poll,
// the router and an httptest peer in this process together. Measured:
// 32 (36 under -race, where sync.Pool drops a share of what is put
// back), nearly all of them the peer's net/http server and handler; the
// hop's own are the two forwarded header values, Content-Type and
// Content-Length. Through http.Client the same poll made 96.
const proxyAllocCeiling = 40

func TestRouterProxyAllocs(t *testing.T) {
	p := newReusedPoll(t)
	if avg := testing.AllocsPerRun(500, p.do); avg > proxyAllocCeiling {
		t.Errorf("a forwarded poll allocates %.1f objects, ceiling %d", avg, proxyAllocCeiling)
	} else {
		t.Logf("%.1f allocations per forwarded poll", avg)
	}
}

func BenchmarkRouterProxyPoll(b *testing.B) {
	p := newReusedPoll(b)
	b.ReportAllocs()
	for b.Loop() {
		p.do()
	}
	if p.status != http.StatusOK {
		b.Fatalf("last poll: status %d", p.status)
	}
}
