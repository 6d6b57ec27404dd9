package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/durable"
	"hetsched/internal/events"
	"hetsched/internal/federation"
	"hetsched/internal/service"
)

// The traced run. One poll script (the poll shape, one run) is replayed
// at increasing depth of the stack, from the bare driver to a router in
// front of a real HTTP server; every poll at every depth is one span,
// recorded here, around the call into the layer's public function. Poll
// i is the same logical request at every depth (the drivers are
// deterministic and the script is fixed), so a layer's self time is
// span(i, depth k) - span(i, depth k-1), reported as the median over i.

// span is one poll at one depth. Parent names the depth this one is
// subtracted from.
type span struct {
	Name   string `json:"name"`
	Poll   int    `json:"poll"`
	Depth  string `json:"depth"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	durs  map[string][]float64 // per depth, ns per poll, in script order
}

func newTracer() *tracer { return &tracer{t0: time.Now(), durs: map[string][]float64{}} }

// depth is one level of the stack the script is replayed at: its own
// run of the same spec, and the poll function that reaches it.
type depth struct {
	name   string // the layer the depth adds
	id     string // d0, d1, ...
	parent string // the depth its span is subtracted from
	poll   pollFn
	rs     *runState
}

// replay drives the depths in lock step: poll i at every depth, then
// poll i+1, one span each. Taking the same poll back to back at all
// depths keeps drift of the box out of the differences between them.
// Every depth must see the same ledger, or poll i would not be the same
// request everywhere.
func (tr *tracer) replay(spec runSpec, total int, depths []depth) (ledger, error) {
	for k := range depths {
		depths[k].rs = newRunState(spec, total)
		tr.durs[depths[k].id] = make([]float64, 0, 1<<15)
	}
	for i := 0; !depths[0].rs.finished(); i++ {
		for _, d := range depths {
			start := time.Now()
			if _, err := d.rs.step(d.poll); err != nil {
				return ledger{}, fmt.Errorf("depth %s poll %d: %w", d.id, i, err)
			}
			end := time.Now()
			tr.spans = append(tr.spans, span{Name: d.name, Poll: i, Depth: d.id, Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0)), Parent: d.parent})
			tr.durs[d.id] = append(tr.durs[d.id], float64(end.Sub(start)))
		}
	}
	want := depths[0].rs.led
	for _, d := range depths {
		if err := d.rs.checkLedger(); err != nil {
			return want, fmt.Errorf("depth %s: %w", d.id, err)
		}
		if !d.rs.finished() || d.rs.led != want {
			return want, fmt.Errorf("depth %s saw ledger %+v, depth %s saw %+v", d.id, d.rs.led, depths[0].id, want)
		}
	}
	return want, nil
}

// selfTimes subtracts, poll by poll, the parent depth's span from the
// child's.
func selfTimes(child, parent []float64) []float64 {
	n := min(len(child), len(parent))
	out := make([]float64, n)
	for i := range out {
		out[i] = child[i] - parent[i]
	}
	return out
}

// self is the per-poll self time of depth over parent, in ns.
func (tr *tracer) self(depth, parent string) []float64 {
	return selfTimes(tr.durs[depth], tr.durs[parent])
}

// spanOverhead prices one span: two clock reads and an append.
func spanOverhead() float64 {
	tr := newTracer()
	const n = 1 << 16
	start := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		e := time.Now()
		tr.spans = append(tr.spans, span{Poll: i, Start: int64(s.Sub(tr.t0)), End: int64(e.Sub(tr.t0))})
	}
	return float64(time.Since(start)) / n
}

func (tr *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tr.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- depths -----------------------------------------------------------------

// d0: the bare driver, Complete then Next, as Host.Next would call them.
// The one rule of the Host it has to copy is the end game: a worker is
// told "wait", not "done", while tasks granted to others are in flight;
// without it the script would be shorter than at every other depth.
func driverPoll(drv core.Driver) pollFn {
	var completed []core.Task
	outstanding := 0
	return func(w int, done, buf []int64) (int, []int64, int, error) {
		outstanding -= len(done)
		if len(done) > 0 {
			completed = completed[:0]
			for _, t := range done {
				completed = append(completed, core.Task(t))
			}
			drv.Complete(w, completed)
		}
		a, ok := drv.Next(w)
		buf = buf[:0]
		for _, t := range a.Tasks {
			buf = append(buf, int64(t))
		}
		outstanding += len(buf)
		switch {
		case ok:
			return stOK, buf, a.Blocks, nil
		case drv.Remaining() > 0 || outstanding > 0:
			return stWait, buf, 0, nil
		}
		return stDone, buf, 0, nil
	}
}

func newDriver(spec runSpec) (core.Driver, error) {
	return service.NewDriver(&service.CreateRunRequest{
		Kernel: spec.Kernel, Strategy: spec.Strategy, N: spec.N, P: spec.P, Seed: spec.Seed,
	})
}

// memWriter is the in-memory ResponseWriter of depth d3.
type memWriter struct {
	hdr  http.Header
	code int
	body []byte
}

func (w *memWriter) Header() http.Header { return w.hdr }
func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *memWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, b...)
	return len(b), nil
}

// handlerPoll is a poll at depth d3: one ServeHTTP call with a reused
// request and an in-memory writer, body in JSON or as a frame.
func handlerPoll(h http.Handler, id string, frames bool) pollFn {
	req, _ := http.NewRequest(http.MethodPost, "/v1/runs/"+id+"/next", nil)
	if frames {
		req.Header.Set("Content-Type", frameType)
		req.Header.Set("Accept", frameType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	rd := bytes.NewReader(nil)
	reqBody := io.NopCloser(rd)
	w := &memWriter{hdr: http.Header{}}
	var body []byte
	return func(wk int, done, buf []int64) (int, []int64, int, error) {
		if frames {
			body = appendPollFrame(body[:0], wk, done)
		} else {
			body = appendPollJSON(body[:0], wk, done)
		}
		rd.Reset(body)
		req.Body, req.ContentLength = reqBody, int64(len(body)) // the handler wraps Body: put ours back
		clear(w.hdr)
		w.code, w.body = 0, w.body[:0]
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			return 0, buf[:0], 0, fmt.Errorf("handler answered %d %s", w.code, clip(w.body))
		}
		if frames {
			return parsePollFrame(w.body, buf)
		}
		return parsePollJSON(w.body, buf)
	}
}

// inMemory performs one request against h without a socket.
func inMemory(h http.Handler, method, path string, body []byte) (int, []byte) {
	req, _ := http.NewRequest(method, path, bytes.NewReader(body))
	w := &memWriter{hdr: http.Header{}}
	h.ServeHTTP(w, req)
	return w.code, w.body
}

// listen serves h on a loopback port until the returned stop is called.
func listen(h http.Handler) (addr string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		srv.Serve(l)
		close(done)
	}()
	return l.Addr().String(), func() { srv.Close(); <-done }, nil
}

// tracePolls replays the poll script through the depths the workload
// exercises and reports the layers' self times. fleet adds the journal
// (d2) and the router hop (d6), which poll_direct bypasses.
func tracePolls(e *env, fleet bool) error {
	// The socket depths have the generator and its server in one
	// process: the server's goroutines need a P of their own while the
	// generator's thread sits in read(2), or every poll waits for the
	// runtime to take the blocked thread's P away.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rep := e.rep
	tr := newTracer()
	spec := e.spec("trace", 0)
	rep.put1("trace.overhead_ns", spanOverhead(), "two clock reads and an append")

	drv, err := newDriver(spec)
	if err != nil {
		return err
	}
	h1, total, err := newHost(spec)
	if err != nil {
		return err
	}
	h1e, _, err := newHost(spec)
	if err != nil {
		return err
	}
	h1e.AttachEvents(events.NewBus(0).Run(spec.ID))
	depths := []depth{
		{name: "core", id: "d0", poll: driverPoll(drv)},
		{name: "service.Host", id: "d1", parent: "d0", poll: hostPoll(h1)},
		{name: "events", id: "d1e", parent: "d1", poll: hostPoll(h1e)},
	}

	// d3 and deeper share one volatile Server, d4 and deeper its
	// listener; every depth has its own run of the same spec, named
	// after the depth.
	srv := service.New(service.Options{TTL: -1, GCInterval: -1})
	defer srv.Close()
	create := func(id string) error {
		s := spec
		s.ID = id
		body, _ := json.Marshal(s)
		if code, resp := inMemory(srv, http.MethodPost, "/v1/runs", body); code != http.StatusCreated {
			return fmt.Errorf("creating run %s in-process: %d %s", id, code, clip(resp))
		}
		return nil
	}
	addr, stop, err := listen(srv)
	if err != nil {
		return err
	}
	defer stop()
	var conns []*pollConn
	defer func() {
		for _, pc := range conns {
			pc.close()
		}
	}()
	socket := func(name, id, parent, to string, frames bool) error {
		pc, err := dialPoll(to)
		if err != nil {
			return err
		}
		conns = append(conns, pc)
		depths = append(depths, depth{name: name, id: id, parent: parent, poll: wirePoll(pc, id, frames)})
		return nil
	}
	for _, id := range []string{"d3", "d3f", "d4", "d4f", "d6", "allocs", "probe"} {
		if err := create(id); err != nil {
			return err
		}
	}
	// Does the server still answer a frame with a frame? If not, the
	// framed depths are left out and their metrics stay 0.
	_, _, _, ferr := handlerPoll(srv, "probe", true)(0, nil, nil)
	framed := !errors.Is(ferr, errNotFrame)
	depths = append(depths, depth{name: "service.Server", id: "d3", parent: "d1", poll: handlerPoll(srv, "d3", false)})
	if framed {
		depths = append(depths, depth{name: "service.Server", id: "d3f", parent: "d1", poll: handlerPoll(srv, "d3f", true)})
	}
	if err := socket("net/http", "d4", "d3", addr, false); err != nil {
		return err
	}
	if framed {
		if err := socket("net/http", "d4f", "d3f", addr, true); err != nil {
			return err
		}
	}
	if fleet {
		dir, err := os.MkdirTemp(e.out, "trace-journal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		jr, err := durable.Open(dir)
		if err != nil {
			return err
		}
		defer jr.Close()
		h2, _, err := newHost(spec)
		if err != nil {
			return err
		}
		h2.AttachJournal(jr, spec.ID)
		depths = append(depths, depth{name: "durable", id: "d2", parent: "d1", poll: hostPoll(h2)})

		rt, err := federation.NewRouter([]federation.Target{{URL: "http://" + addr}}, federation.Options{})
		if err != nil {
			return err
		}
		raddr, rstop, err := listen(rt)
		if err != nil {
			return err
		}
		defer rstop()
		if err := socket("federation.Router", "d6", "d4", raddr, false); err != nil {
			return err
		}
		ring := rt.Ring()
		rep.put("federation.ring_owner_ns", timeCalls(20, 1000, func() { ring.Owner("trace") }), "Ring.Owner of one id")
	}

	want, err := tr.replay(spec, total, depths)
	if err != nil {
		return err
	}

	// Allocations are counted on a pass of their own: reading MemStats
	// stops the world, which no timed span should contain.
	var before, after runtime.MemStats
	poll := handlerPoll(srv, "allocs", false)
	runtime.ReadMemStats(&before)
	if _, err := driveScript(spec, total, 0, poll); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	rep.put1("service.allocs_per_poll", float64(after.Mallocs-before.Mallocs)/float64(want.Polls), "MemStats.Mallocs delta over one run at d3 / polls")

	rep.put("core.step_ns.outer", tr.durs["d0"], "d0: bare driver, Complete+Next per poll")
	rep.put("service.host_ns", tr.self("d1", "d0"), "d1 - d0")
	rep.put("events.publish_ns", tr.self("d1e", "d1"), "d1e - d1, no subscriber")
	rep.put("service.handler_ns", tr.self("d3", "d1"), "d3 - d1: ServeHTTP in memory, JSON")
	rep.put("nethttp.residue_ns", tr.self("d4", "d3"), "d4 - d3: a real http.Server and one raw connection")
	if framed {
		rep.put("service.handler_frame_ns", tr.self("d3f", "d1"), "d3f - d1: the same poll as a frame")
		rep.put("nethttp.frame_saving_ns", tr.self("d4", "d4f"), "d4 - d4f")
	}
	if fleet {
		rep.put("durable.journal_ns", tr.self("d2", "d1"), "d2 - d1: journal frame + group commit")
		rep.put("federation.proxy_ns", tr.self("d6", "d4"), "d6 - d4: router + its own net/http hop")
		sum := 0.0
		for _, name := range []string{"core.step_ns.outer", "service.host_ns", "durable.journal_ns", "service.handler_ns", "nethttp.residue_ns", "federation.proxy_ns"} {
			v, _ := rep.value(name)
			sum += v
		}
		e2e, _ := rep.value("op_ms")
		ratio := sum / (e2e * 1e6)
		rep.put1("trace.sum_over_e2e", ratio, "d0+host+journal+handler+residue+proxy / this run's poll p50")
		if ratio < 0.7 || ratio > 1.3 {
			rep.notes = append(rep.notes, fmt.Sprintf("trace.sum_over_e2e = %.2f is outside [0.7, 1.3]: see README.md, \"what the layers leave out\"", ratio))
		}
		if err := traceHeap(e); err != nil {
			return err
		}
	}
	return tr.write(e.out)
}

// withJournaledHost runs f on a Host that journals spec's run to a fresh
// directory under <out>.
func withJournaledHost(e *env, spec runSpec, f func(h *service.Host, total int) error) error {
	dir, err := os.MkdirTemp(e.out, "trace-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jr, err := durable.Open(dir)
	if err != nil {
		return err
	}
	defer jr.Close()
	h, total, err := newHost(spec)
	if err != nil {
		return err
	}
	h.AttachJournal(jr, spec.ID)
	return f(h, total)
}

// traceHeap reports how much live heap a journaled Host keeps per poll:
// the op log and the trace that snapshots, handoffs and replay all carry.
// The drive records no spans, so that only the Host grows.
func traceHeap(e *env) error {
	spec := e.spec("heap", 0)
	return withJournaledHost(e, spec, func(h *service.Host, total int) error {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		led, err := driveScript(spec, total, 0, hostPoll(h))
		if err != nil {
			return err
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(h)
		grown := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		e.rep.put1("service.heap_bytes_per_kpoll", grown/float64(led.Polls)*1000, "live-heap growth of one journaled Host per 1000 polls")
		return nil
	})
}

// timeCalls times batches of per calls of f and returns ns per call, one
// sample per batch.
func timeCalls(batches, per int, f func()) []float64 {
	out := make([]float64, batches)
	for b := range out {
		start := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		out[b] = float64(time.Since(start)) / float64(per)
	}
	return out
}
