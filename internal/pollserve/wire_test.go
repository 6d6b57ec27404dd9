package pollserve_test

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
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsched/internal/durable"
	"hetsched/internal/federation"
	"hetsched/internal/pollserve"
	"hetsched/internal/service"
)

// startLoop serves h through the loop on a loopback listener, wrapped by
// wrap when that is not nil, and returns its address. The server is shut
// down with the test, or before by the function returned.
func startLoop(t testing.TB, h pollserve.Handler, wrap func(net.Listener) net.Listener) (addr string, shutdown func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr = ln.Addr().String()
	if wrap != nil {
		ln = wrap(ln)
	}
	srv := pollserve.New(h)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	var once sync.Once
	shutdown = func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
			if err := <-served; err != http.ErrServerClosed {
				t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
			}
		})
	}
	t.Cleanup(shutdown)
	return addr, shutdown
}

// client is a raw connection the tests script byte by byte.
type client struct {
	t  testing.TB
	c  net.Conn
	br *bufio.Reader
}

func dial(t testing.TB, addr string) *client {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(30 * time.Second)) // a server that stops answering fails the test
	t.Cleanup(func() { c.Close() })
	return &client{t: t, c: c, br: bufio.NewReader(c)}
}

func (cl *client) send(s string) {
	cl.t.Helper()
	if _, err := io.WriteString(cl.c, s); err != nil {
		cl.t.Fatalf("write: %v", err)
	}
}

// answer is what a test compares of a response.
type answer struct {
	Proto  string
	Status int
	Names  []string          // header names, sorted
	Values map[string]string // header values but Date's
	Body   string
}

func (cl *client) recv() answer {
	cl.t.Helper()
	resp, err := http.ReadResponse(cl.br, nil)
	if err != nil {
		cl.t.Fatalf("reading response: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		cl.t.Fatalf("reading response body: %v", err)
	}
	a := answer{Proto: resp.Proto, Status: resp.StatusCode, Values: map[string]string{}, Body: string(body)}
	for name, v := range resp.Header {
		a.Names = append(a.Names, name)
		if name != "Date" {
			a.Values[name] = strings.Join(v, "|")
		}
	}
	sort.Strings(a.Names)
	return a
}

// pollReq is a poll as the benchmark's generator writes it.
func pollReq(id, body string) string {
	return fmt.Sprintf("POST /v1/runs/%s/next HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		id, len(body), body)
}

// newHost builds a server with one run of every kind the poll route
// tells apart: "live" polls, "fenced" is mid-handoff, "gone" has left.
func newHost(t testing.TB, opts service.Options) *service.Server {
	t.Helper()
	opts.GCInterval = -1
	svc := service.New(opts)
	t.Cleanup(svc.Close)
	for _, id := range []string{"live", "fenced", "gone"} {
		q := service.CreateRunRequest{ID: id, Kernel: service.KernelOuter, Strategy: "2phases", N: 8, P: 4, Seed: 7, Batch: 2}
		run, err := opts.NewRun(id, &q)
		if err != nil {
			t.Fatal(err)
		}
		svc.Registry().Add(run)
	}
	fenced, _ := svc.Registry().Get("fenced")
	fenced.Host.Fence()
	svc.Registry().MigrateOut("gone")
	return svc
}

// op is one step of a script on one connection: bytes to send, or a
// response to read when send is empty. pause lets what was sent arrive
// on its own before the next piece leaves.
type op struct {
	send  string
	pause bool
}

var recv = op{}

// TestLoopAnswersAsNetHTTP sends the same scripts to a server behind
// net/http alone and to its twin behind the loop, and requires the same
// answers: status, body, header names, and every header value but the
// date. The polls the loop answers itself and the requests it hands
// over are both in there; want pins the statuses, so that two equal
// wrong answers do not pass.
func TestLoopAnswersAsNetHTTP(t *testing.T) {
	// A clock that stands still, so that a run's stats are the same bytes
	// on both sides.
	epoch := time.Unix(1700000000, 0)
	opts := service.Options{MaxBodyBytes: 256, Now: func() time.Time { return epoch }}
	ref := httptest.NewServer(newHost(t, opts))
	t.Cleanup(ref.Close)
	looped := newHost(t, opts)
	loopAddr, _ := startLoop(t, looped, nil)

	// A pair that is still replaying its journal.
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) })
	recovering := func() *service.Server {
		jr, err := durable.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { jr.Close() })
		svc := service.New(service.Options{GCInterval: -1, Journal: jr, AsyncRecover: true, RecoverGate: gate})
		t.Cleanup(svc.Close)
		return svc
	}
	refRecovering := httptest.NewServer(recovering())
	t.Cleanup(refRecovering.Close)
	loopedRecovering := recovering()
	loopRecovering, _ := startLoop(t, loopedRecovering, nil)

	ok := pollReq("live", `{"worker":0}`)
	big := strings.Repeat(" ", 300)
	scripts := []struct {
		name       string
		recovering bool
		ops        []op
		want       []int
		loop       uint64 // how many of the requests the loop answers itself
	}{
		{name: "200", ops: []op{{send: ok}, recv}, want: []int{200}, loop: 1},
		{name: "200 framed", want: []int{200}, loop: 1, ops: []op{{send: "POST /v1/runs/live/next HTTP/1.1\r\nHost: test\r\n" +
			"Accept: application/x-schedd-frame\r\nContent-Length: 12\r\n\r\n" + `{"worker":1}`}, recv}},
		{name: "400 bad worker", ops: []op{{send: pollReq("live", `{"worker":99}`)}, recv}, want: []int{400}, loop: 1},
		{name: "400 not JSON", ops: []op{{send: pollReq("live", `{"worker":`)}, recv}, want: []int{400}, loop: 1},
		{name: "404", ops: []op{{send: pollReq("nobody", `{"worker":0}`)}, recv}, want: []int{404}, loop: 1},
		{name: "410 migrated", ops: []op{{send: pollReq("gone", `{"worker":0}`)}, recv}, want: []int{410}, loop: 1},
		{name: "409 fenced", ops: []op{{send: pollReq("fenced", `{"worker":0}`)}, recv}, want: []int{409}, loop: 1},
		{name: "503 recovering", recovering: true, ops: []op{{send: ok}, recv}, want: []int{503}, loop: 1},
		{name: "body over the limit", ops: []op{{send: pollReq("live", big)}, recv}, want: []int{400}},
		{name: "Expect: 100-continue", want: []int{100, 200}, ops: []op{
			{send: "POST /v1/runs/live/next HTTP/1.1\r\nHost: test\r\nContent-Length: 12\r\nExpect: 100-continue\r\n\r\n"}, recv,
			{send: `{"worker":2}`}, recv}},
		{name: "chunked body", want: []int{200}, ops: []op{{send: "POST /v1/runs/live/next HTTP/1.1\r\nHost: test\r\n" +
			"Transfer-Encoding: chunked\r\n\r\nc\r\n" + `{"worker":3}` + "\r\n0\r\n\r\n"}, recv}},
		{name: "HTTP/1.0", want: []int{200}, ops: []op{{send: "POST /v1/runs/live/next HTTP/1.0\r\nContent-Length: 12\r\n\r\n" + `{"worker":0}`}, recv}},
		{name: "two pipelined polls", ops: []op{{send: pollReq("live", `{"worker":1}`) + pollReq("live", `{"worker":2}`)}, recv, recv}, want: []int{200, 200}, loop: 2},
		{name: "a poll split across reads", want: []int{200, 200}, loop: 2, ops: []op{
			{send: ok[:20], pause: true}, {send: ok[20 : len(ok)-5], pause: true}, {send: ok[len(ok)-5:]}, recv,
			{send: ok + ok[:7], pause: true}, recv}},
		{name: "stats, then a poll", want: []int{200, 200}, ops: []op{
			{send: "GET /v1/runs/live/stats HTTP/1.1\r\nHost: test\r\n\r\n"}, recv, {send: ok}, recv}},
		{name: "a poll, health, then a poll", want: []int{200, 200, 200}, loop: 1, ops: []op{
			{send: ok}, recv, {send: "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"}, recv, {send: ok}, recv}},
		{name: "a poll and a hand-over in one write", want: []int{200, 404}, loop: 1, ops: []op{
			{send: ok + "GET /v1/runs/nobody HTTP/1.1\r\nHost: test\r\n\r\n"}, recv, recv}},
	}
	run := func(addr string, ops []op) []answer {
		cl := dial(t, addr)
		defer cl.c.Close()
		var got []answer
		for _, o := range ops {
			if o.send == "" {
				got = append(got, cl.recv())
				continue
			}
			cl.send(o.send)
			if o.pause {
				time.Sleep(20 * time.Millisecond) // makes the split likely; no answer depends on it
			}
		}
		return got
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			refAddr, addr, svc := ref.Listener.Addr().String(), loopAddr, looped
			if sc.recovering {
				refAddr, addr, svc = refRecovering.Listener.Addr().String(), loopRecovering, loopedRecovering
			}
			before := svc.Metrics().LoopPolls
			want, got := run(refAddr, sc.ops), run(addr, sc.ops)
			if n := svc.Metrics().LoopPolls - before; n != sc.loop {
				t.Errorf("the loop answered %d of the requests itself, want %d", n, sc.loop)
			}
			for i, code := range sc.want {
				if want[i].Status != code {
					t.Errorf("response %d behind net/http: status %d, want %d (%s)", i, want[i].Status, code, want[i].Body)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("behind the loop:\n%+v\nbehind net/http:\n%+v", got, want)
			}
		})
	}
}

// countingListener hands out connections that count their Reads that
// returned bytes and their Writes.
type countingListener struct {
	net.Listener
	reads, writes *atomic.Int64
}

type countingConn struct {
	net.Conn
	reads, writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.reads, l.writes}, nil
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestLoopOneReadOneWritePerPoll pins the loop's cost in calls: a poll
// that arrives in one piece is read by one Read and answered by one
// Write, however long the connection has been polling.
func TestLoopOneReadOneWritePerPoll(t *testing.T) {
	var reads, writes atomic.Int64
	svc := newHost(t, service.Options{})
	addr, _ := startLoop(t, svc, func(l net.Listener) net.Listener {
		return countingListener{l, &reads, &writes}
	})
	cl := dial(t, addr)
	const polls = 50
	var next service.NextResponse
	for i := 0; i < polls; i++ {
		body, _ := json.Marshal(service.NextRequest{Worker: 0, Completed: next.Tasks})
		cl.send(pollReq("live", string(body)))
		a := cl.recv()
		next = service.NextResponse{}
		if err := json.Unmarshal([]byte(a.Body), &next); a.Status != http.StatusOK || err != nil {
			t.Fatalf("poll %d: status %d %s", i, a.Status, a.Body)
		}
	}
	if r, w := reads.Load(), writes.Load(); r != polls || w != polls {
		t.Errorf("%d polls took %d reads and %d writes, want %d of each", polls, r, w, polls)
	}
	if got := svc.Metrics().LoopPolls; got != polls {
		t.Errorf("loop_polls = %d, want %d", got, polls)
	}
}

// gatedHandler answers polls only once release is closed, and says when
// one has arrived.
type gatedHandler struct {
	*service.Server
	arrived chan struct{}
	release chan struct{}
}

func (h gatedHandler) ServePoll(dst []byte, r *pollserve.Request) []byte {
	h.arrived <- struct{}{}
	<-h.release
	return h.Server.ServePoll(dst, r)
}

// TestLoopShutdown: Shutdown closes the listener and a connection that
// sits between polls, answers the poll in flight before it closes that
// connection, shuts down what was handed to net/http, and leaves no
// goroutine behind.
func TestLoopShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	h := gatedHandler{newHost(t, service.Options{}), make(chan struct{}), make(chan struct{})}
	addr, shutdown := startLoop(t, h, nil)

	idle := dial(t, addr)
	handed := dial(t, addr)
	handed.send("GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
	if a := handed.recv(); a.Status != http.StatusOK {
		t.Fatalf("healthz: status %d", a.Status)
	}
	busy := dial(t, addr)
	busy.send(pollReq("live", `{"worker":0}`))
	<-h.arrived

	done := make(chan struct{})
	go func() { defer close(done); shutdown() }()
	if _, err := idle.br.ReadByte(); err != io.EOF {
		t.Errorf("a connection between polls: read %v, want io.EOF", err)
	}
	select {
	case <-done:
		t.Fatal("Shutdown returned with a poll in flight")
	default:
	}
	close(h.release)
	if a := busy.recv(); a.Status != http.StatusOK {
		t.Errorf("the poll in flight: status %d %s", a.Status, a.Body)
	}
	if _, err := busy.br.ReadByte(); err != io.EOF {
		t.Errorf("after the poll in flight: read %v, want io.EOF", err)
	}
	if _, err := handed.br.ReadByte(); err != io.EOF {
		t.Errorf("net/http's connection between requests: read %v, want io.EOF", err)
	}
	<-done
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Error("the listener still accepts")
	}
	for _, cl := range []*client{idle, handed, busy} {
		cl.c.Close()
	}
	// The runtime needs a moment to retire goroutines that have returned.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines, %d before the server started\n%s", now, before, buf[:runtime.Stack(buf, true)])
	}
}

// panicHandler panics on a poll of the run "boom".
type panicHandler struct{ *service.Server }

func (h panicHandler) ServePoll(dst []byte, r *pollserve.Request) []byte {
	if r.ID == "boom" {
		panic("boom went the handler")
	}
	return h.Server.ServePoll(dst, r)
}

// TestLoopHandlerPanic: a handler that panics costs the loop what it
// costs net/http — the connection, and a line in the log.
func TestLoopHandlerPanic(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	addr, shutdown := startLoop(t, panicHandler{newHost(t, service.Options{})}, nil)
	cl := dial(t, addr)
	cl.send(pollReq("boom", `{"worker":0}`))
	if _, err := cl.br.ReadByte(); err != io.EOF {
		t.Errorf("after the panic: read %v, want io.EOF", err)
	}
	cl = dial(t, addr)
	cl.send(pollReq("live", `{"worker":0}`))
	if a := cl.recv(); a.Status != http.StatusOK {
		t.Errorf("the next connection: status %d %s", a.Status, a.Body)
	}
	shutdown() // the panicking goroutine has logged and gone
	if !strings.Contains(logged.String(), "boom went the handler") {
		t.Errorf("the log does not name the panic: %q", logged.String())
	}
}

// TestLoopHammer drives one run to its end through both loops at once —
// client → router loop → upstream hop → host loop — from one goroutine
// and connection per worker, and then checks the ledger exactly: every
// task granted once, every counter equal to what the workers counted,
// and every poll answered by the two loops and by no net/http server.
func TestLoopHammer(t *testing.T) {
	svc := newHost(t, service.Options{})
	hostAddr, _ := startLoop(t, svc, nil)
	rt, err := federation.NewRouter([]federation.Target{{URL: "http://" + hostAddr}}, federation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	routerAddr, _ := startLoop(t, rt, nil)

	const workers, n = 16, 48 // 2304 tasks, a few hundred polls a worker
	q := service.CreateRunRequest{ID: "hammer", Kernel: service.KernelOuter, Strategy: "2phases", N: n, P: workers, Seed: 11, Batch: 1}
	run, err := service.Options{}.NewRun(q.ID, &q)
	if err != nil {
		t.Fatal(err)
	}
	svc.Registry().Add(run)

	var polls atomic.Int64
	granted := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := dial(t, routerAddr)
			var held []int64
			for {
				body, _ := json.Marshal(service.NextRequest{Worker: w, Completed: held})
				if _, err := io.WriteString(cl.c, pollReq(q.ID, string(body))); err != nil {
					t.Errorf("worker %d: write: %v", w, err)
					return
				}
				resp, err := http.ReadResponse(cl.br, nil)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				var next service.NextResponse
				err = json.NewDecoder(resp.Body).Decode(&next)
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Errorf("worker %d: status %d, decoding: %v", w, resp.StatusCode, err)
					return
				}
				polls.Add(1)
				held = next.Tasks
				granted[w] = append(granted[w], next.Tasks...)
				if next.Status == service.StatusDone {
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	seen := make(map[int64]bool)
	for _, tasks := range granted {
		for _, task := range tasks {
			if seen[task] {
				t.Fatalf("task %d granted twice", task)
			}
			seen[task] = true
		}
	}
	st := run.Host.Stats()
	total := int(polls.Load())
	if len(seen) != n*n || st.Total != n*n || st.Completed != n*n || st.Assigned != n*n || st.Outstanding != 0 || st.Reclaimed != 0 {
		t.Errorf("%d distinct tasks granted; stats %+v; want %d granted, assigned and completed, none outstanding or reclaimed", len(seen), st, n*n)
	}
	if st.Polls != total {
		t.Errorf("the host counted %d polls, the workers %d", st.Polls, total)
	}
	if got := svc.Metrics().LoopPolls; got != uint64(total) {
		t.Errorf("the host's loop answered %d polls of %d", got, total)
	}
	var ring federation.RingStatus
	cl := dial(t, routerAddr)
	cl.send("GET /v1/ring HTTP/1.1\r\nHost: test\r\n\r\n")
	if err := json.Unmarshal([]byte(cl.recv().Body), &ring); err != nil {
		t.Fatal(err)
	}
	if ring.LoopPolls != uint64(total) {
		t.Errorf("the router's loop answered %d polls of %d", ring.LoopPolls, total)
	}
	if len(ring.Upstream) != 1 {
		t.Fatalf("ring status %+v, want one upstream row", ring)
	}
	if up := ring.Upstream[0]; up.Dials+up.Reuses != uint64(total) || up.Dials > workers || up.Stale != 0 || up.Failures != 0 {
		t.Errorf("upstream %+v, want dials+reuses = %d with at most %d dials, nothing stale or failed", up, total, workers)
	}
}
