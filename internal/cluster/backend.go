package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/durable"
	"hetsched/internal/events"
	"hetsched/internal/service"
	"hetsched/internal/trace"
)

// backend is the seam between the event loop and the scheduler
// service. Both implementations drive the *real* service code — the
// direct backend calls service.Host/Registry methods in process, the
// HTTP backend speaks full JSON to a loopback server — so every
// scenario can run against either and must produce the identical
// deterministic outcome (TestModesAgree pins that).
type backend interface {
	// create registers the run and returns its wire info.
	create(spec RunSpec) (service.RunInfo, error)
	// next is one worker poll: report completed, receive a verdict.
	// conflict is the 409 lease-expired answer (the batch is lost to a
	// reassignment and the worker must drop it); any other non-OK
	// answer is a scenario bug and surfaces as err. A granted batch is
	// written into grantBuf (append from length 0, growing it at most
	// once per worker in steady state) — the caller owns the buffer
	// and must not alias it with completed; r.tasks is only valid
	// until the buffer's next reuse.
	next(run int, worker int, completed, grantBuf []core.Task) (r nextResult, conflict bool, err error)
	// sweep runs one registry janitor pass (every live host's, in a
	// federated backend).
	sweep()
	// stats and traceOf snapshot the run's collectors.
	stats(run int) (service.StatsResponse, error)
	traceOf(run int) (*trace.Trace, error)
	// busFor is the event bus of the host serving run: scripted
	// subscribers attach to it in process in both modes (the SSE wire
	// framing is pinned by internal/service's own tests).
	busFor(run int) *events.Bus
	// busTotals sums published/dropped across every host's bus.
	busTotals() (published, dropped uint64)
	// ownerOf is the topology index of the host serving run; -1 for
	// the single-host backends.
	ownerOf(run int) int
	// crashHost kills an entire host: its runs lose their master and
	// every later poll against them reports hostDown. Federated
	// backends only.
	crashHost(host int) error
	// migrate moves one run to the host at index dest through the
	// router's explicit-move primitive (fence, ship, replay, override).
	// Federated backends only.
	migrate(run, dest int) error
	// ringChange steps the placement epoch, migrating every run whose
	// owner moved; with a crashed journaled host it also scavenges that
	// host's runs from its journal directory (the death path).
	// Federated backends only.
	ringChange(epoch uint64) error
	// checkpoint seals the master's journal generation and snapshots
	// every registered run. Journaled single-host backends only.
	checkpoint() error
	// crashMaster kills the master without flushing anything beyond
	// what group commit already wrote, then restarts it from its
	// journal directory: snapshots load, the tail replays, and the
	// restarted master serves the exact pre-crash state. Journaled
	// single-host backends only.
	crashMaster() error
	// placement snapshots the run ids as seen through the router and
	// as held by each live host, for the placement invariants. The
	// single-host backends return nils.
	placement() (router []string, perHost [][]string, err error)
	close()
}

// nextResult is a backend-neutral NextResponse.
type nextResult struct {
	status string
	tasks  []core.Task
	blocks int
	// hostDown reports the poll found no live master: the run's host
	// crashed (federated 503 / dead in-process host). The other fields
	// are meaningless when set.
	hostDown bool
}

// leaseDuration mirrors service.Options.NewRun's lease derivation (0
// or negative disables) for the invariant checker's lease-echo
// assertion; the runs themselves are built by NewRun in both modes.
func leaseDuration(ls float64) time.Duration {
	if ls <= 0 {
		return 0
	}
	return time.Duration(ls * float64(time.Second))
}

// request builds the CreateRunRequest a spec stands for.
func (spec RunSpec) request() service.CreateRunRequest {
	return service.CreateRunRequest{
		ID:           spec.RunID,
		Kernel:       spec.Kernel,
		Strategy:     spec.Strategy,
		N:            spec.N,
		P:            spec.P,
		Seed:         spec.Seed,
		Batch:        spec.Batch,
		LeaseSeconds: spec.LeaseSeconds,
	}
}

// --- direct backend ----------------------------------------------------

// directBackend drives Host and Registry in process: the transport-free
// mode, fast enough for 10k-worker fleets. With a journal directory it
// is also the transport-free durability harness: every mutation is
// journaled through the registry exactly as the server journals it, and
// crashMaster rebuilds the registry from disk.
type directBackend struct {
	reg  *service.Registry
	runs []*service.Run
	ids  []string
	now  func() time.Time
	evs  *events.Bus
	ttl  time.Duration
	dir  string
	jr   *durable.Log
}

func newDirectBackend(ttl time.Duration, now func() time.Time, journalDir string) (*directBackend, error) {
	b := &directBackend{
		reg: service.NewRegistryWithClock(8, ttl, now),
		now: now,
		evs: events.NewBus(0),
		ttl: ttl,
		dir: journalDir,
	}
	b.reg.AttachBus(b.evs)
	if journalDir != "" {
		jr, err := durable.Open(journalDir)
		if err != nil {
			return nil, err
		}
		b.jr = jr
		b.reg.AttachJournal(jr)
	}
	return b, nil
}

func (b *directBackend) create(spec RunSpec) (service.RunInfo, error) {
	q := spec.request()
	if err := q.Validate(); err != nil {
		return service.RunInfo{}, err
	}
	// The server's own run constructor (service.Options.NewRun) with
	// the same defaults opts.fill() would produce, so the direct mode
	// cannot drift from handleCreate. Registration goes through AddNew
	// — the same durable-before-visible path handleCreate uses — so a
	// journaled scenario's creates are on disk before any poll.
	run, err := service.Options{DefaultBatch: 1, Now: b.now, Events: b.evs}.NewRun(b.reg.NewID(), &q)
	if err != nil {
		return service.RunInfo{}, err
	}
	added, err := b.reg.AddNew(run)
	if err != nil {
		return service.RunInfo{}, fmt.Errorf("journaling run %q: %w", run.ID, err)
	}
	if !added {
		return service.RunInfo{}, fmt.Errorf("run %q already exists", run.ID)
	}
	b.runs = append(b.runs, run)
	b.ids = append(b.ids, run.ID)
	return run.Info(), nil
}

// lookup mirrors the server's liveness check: a run the sweep expired
// answers like the HTTP path's 410/404 would, so scenarios that arm
// the TTL fail identically in both modes instead of direct mode
// silently serving a swept run from its retained pointer.
func (b *directBackend) lookup(run int) (*service.Run, error) {
	r := b.runs[run]
	if r.Expired() {
		return nil, fmt.Errorf("run %q is expired", r.ID)
	}
	if _, ok := b.reg.Get(r.ID); !ok {
		return nil, fmt.Errorf("unknown run %q (swept)", r.ID)
	}
	return r, nil
}

func (b *directBackend) next(run, worker int, completed, grantBuf []core.Task) (nextResult, bool, error) {
	r, err := b.lookup(run)
	if err != nil {
		return nextResult{}, false, err
	}
	a, status, err := r.Host.Next(worker, completed)
	if err != nil {
		if _, is := err.(*service.LeaseExpiredError); is {
			return nextResult{}, true, nil
		}
		return nextResult{}, false, err
	}
	// The assignment's Tasks alias Host-internal per-worker buffers
	// that are overwritten on a later poll; the worker retains its
	// batch across events, so copy — into the caller's recycled grant
	// buffer, which makes the steady-state poll loop allocation-free.
	res := nextResult{status: status, blocks: a.Blocks}
	if len(a.Tasks) > 0 {
		res.tasks = append(grantBuf, a.Tasks...)
	}
	return res, false, nil
}

func (b *directBackend) sweep() { b.reg.Sweep() }

func (b *directBackend) stats(run int) (service.StatsResponse, error) {
	r, err := b.lookup(run)
	if err != nil {
		return service.StatsResponse{}, err
	}
	return r.Host.Stats(), nil
}

func (b *directBackend) traceOf(run int) (*trace.Trace, error) {
	r, err := b.lookup(run)
	if err != nil {
		return nil, err
	}
	return r.Host.Trace(), nil
}

func (b *directBackend) busFor(int) *events.Bus { return b.evs }

func (b *directBackend) busTotals() (uint64, uint64) { return b.evs.Published(), b.evs.Dropped() }

func (b *directBackend) ownerOf(int) int { return -1 }

func (b *directBackend) crashHost(host int) error {
	return fmt.Errorf("cluster: single-host backend cannot crash host %d", host)
}

func (b *directBackend) migrate(run, dest int) error {
	return fmt.Errorf("cluster: single-host backend cannot migrate run %d", run)
}

func (b *directBackend) ringChange(epoch uint64) error {
	return fmt.Errorf("cluster: single-host backend has no ring")
}

func (b *directBackend) checkpoint() error {
	if b.jr == nil {
		return fmt.Errorf("cluster: checkpoint without a journal")
	}
	return b.reg.Checkpoint()
}

func (b *directBackend) crashMaster() error {
	if b.jr == nil {
		return fmt.Errorf("cluster: master crash without a journal")
	}
	// SIGKILL the master: drop the registry on the floor — nothing is
	// flushed beyond what Commit already wrote — then reopen the
	// journal directory and recover through the same Options.Recover
	// path cmd/schedd uses at startup.
	b.jr.Close()
	jr, err := durable.Open(b.dir)
	if err != nil {
		return err
	}
	b.jr = jr
	reg := service.NewRegistryWithClock(8, b.ttl, b.now)
	reg.AttachBus(b.evs)
	reg.AttachJournal(jr)
	if _, err := (service.Options{Now: b.now, Events: b.evs}).Recover(reg, jr); err != nil {
		return fmt.Errorf("cluster: recovering master: %w", err)
	}
	b.reg = reg
	// Re-resolve the retained run pointers against the recovered
	// registry. A run the durable state no longer knows (swept before
	// the crash) keeps its old pointer; lookup's registry check fails
	// it exactly as before the crash.
	for i, id := range b.ids {
		if run, ok := reg.Get(id); ok {
			b.runs[i] = run
		}
	}
	return nil
}

func (b *directBackend) placement() ([]string, [][]string, error) { return nil, nil, nil }

func (b *directBackend) close() {
	if b.jr != nil {
		b.jr.Close()
	}
}

// --- HTTP backend ------------------------------------------------------

// httpBackend runs the full service.Server behind a loopback listener,
// served as cmd/schedd serves it (loopServer), and speaks the real JSON
// protocol, one synchronous request at a time
// — so the wire path (strict decoding, status mapping, response
// construction) is inside the deterministic loop. The virtual clock is
// injected through service.Options.Now; the server's own janitor is
// disabled and sweeps are driven by the event loop.
type httpBackend struct {
	svc    *service.Server
	ts     *loopServer
	client *http.Client
	ids    []string
	ttl    time.Duration
	now    func() time.Time
	dir    string
	jr     *durable.Log
}

func newHTTPBackend(ttl time.Duration, now func() time.Time, journalDir string) (*httpBackend, error) {
	b := &httpBackend{ttl: ttl, now: now, dir: journalDir}
	if journalDir != "" {
		jr, err := durable.Open(journalDir)
		if err != nil {
			return nil, err
		}
		b.jr = jr
	}
	b.svc = service.New(b.options())
	if err := b.listen(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// listen puts the current server behind a fresh listener.
func (b *httpBackend) listen() (err error) {
	if b.ts, err = newLoopServer(b.svc); err != nil {
		return err
	}
	b.client = b.ts.Client()
	return nil
}

// options builds the server options of one master life: the same knobs
// on every restart, only the reopened journal handle differing.
func (b *httpBackend) options() service.Options {
	return service.Options{
		TTL:        ttlOption(b.ttl),
		GCInterval: -1,
		Now:        b.now,
		Journal:    b.jr,
	}
}

// ttlOption maps the scenario's "0 disables" convention onto
// service.Options' "0 means default, negative disables".
func ttlOption(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		return -1
	}
	return ttl
}

func (b *httpBackend) do(method, path string, in, out any) (int, error) {
	var body *bytes.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(buf)
	} else {
		body = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, b.ts.URL+path, body)
	if err != nil {
		return 0, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := service.DecodeStrict(resp.Body, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

func (b *httpBackend) create(spec RunSpec) (service.RunInfo, error) {
	var info service.RunInfo
	code, err := b.do("POST", "/v1/runs", spec.request(), &info)
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("create run: status %d", code)
	}
	if err != nil {
		return service.RunInfo{}, err
	}
	b.ids = append(b.ids, info.ID)
	return info, nil
}

func (b *httpBackend) next(run, worker int, completed, grantBuf []core.Task) (nextResult, bool, error) {
	q := service.NextRequest{Worker: worker}
	if len(completed) > 0 {
		q.Completed = make([]int64, len(completed))
		for i, t := range completed {
			q.Completed[i] = int64(t)
		}
	}
	var resp service.NextResponse
	code, err := b.do("POST", "/v1/runs/"+b.ids[run]+"/next", q, &resp)
	if err != nil {
		return nextResult{}, false, err
	}
	switch code {
	case http.StatusOK:
	case http.StatusConflict:
		return nextResult{}, true, nil
	default:
		return nextResult{}, false, fmt.Errorf("worker %d poll: status %d", worker, code)
	}
	r := nextResult{status: resp.Status, blocks: resp.Blocks}
	for _, t := range resp.Tasks {
		grantBuf = append(grantBuf, core.Task(t))
	}
	if len(resp.Tasks) > 0 {
		r.tasks = grantBuf
	}
	return r, false, nil
}

func (b *httpBackend) sweep() { b.svc.SweepNow() }

func (b *httpBackend) stats(run int) (service.StatsResponse, error) {
	var st service.StatsResponse
	code, err := b.do("GET", "/v1/runs/"+b.ids[run]+"/stats", nil, &st)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("stats: status %d", code)
	}
	return st, err
}

func (b *httpBackend) traceOf(run int) (*trace.Trace, error) {
	var tr service.TraceResponse
	code, err := b.do("GET", "/v1/runs/"+b.ids[run]+"/trace", nil, &tr)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("trace: status %d", code)
	}
	return tr.Trace, err
}

func (b *httpBackend) busFor(int) *events.Bus { return b.svc.Bus() }

func (b *httpBackend) busTotals() (uint64, uint64) {
	return b.svc.Bus().Published(), b.svc.Bus().Dropped()
}

func (b *httpBackend) ownerOf(int) int { return -1 }

func (b *httpBackend) crashHost(host int) error {
	return fmt.Errorf("cluster: single-host backend cannot crash host %d", host)
}

func (b *httpBackend) migrate(run, dest int) error {
	return fmt.Errorf("cluster: single-host backend cannot migrate run %d", run)
}

func (b *httpBackend) ringChange(epoch uint64) error {
	return fmt.Errorf("cluster: single-host backend has no ring")
}

func (b *httpBackend) checkpoint() error {
	if b.jr == nil {
		return fmt.Errorf("cluster: checkpoint without a journal")
	}
	return b.svc.Checkpoint()
}

func (b *httpBackend) crashMaster() error {
	if b.jr == nil {
		return fmt.Errorf("cluster: master crash without a journal")
	}
	// Tear the whole wire stack down — listener, server, journal
	// handle — and bring a fresh one up over the same directory. The
	// new server recovers synchronously inside service.New, exactly as
	// `schedd -journal-dir` does at boot, so the first post-crash poll
	// already sees the replayed state.
	b.ts.Close()
	b.svc.Close()
	b.jr.Close()
	jr, err := durable.Open(b.dir)
	if err != nil {
		return err
	}
	b.jr = jr
	b.svc = service.New(b.options())
	if err := b.svc.RecoveryErr(); err != nil {
		return fmt.Errorf("cluster: recovering master: %w", err)
	}
	return b.listen()
}

func (b *httpBackend) placement() ([]string, [][]string, error) { return nil, nil, nil }

func (b *httpBackend) close() {
	if b.ts != nil {
		b.ts.Close()
	}
	b.svc.Close()
	if b.jr != nil {
		b.jr.Close()
	}
}
