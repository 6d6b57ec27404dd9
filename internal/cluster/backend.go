package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/durable"
	"hetsched/internal/events"
	"hetsched/internal/federation"
	"hetsched/internal/service"
	"hetsched/internal/trace"
)

// backend is the seam between the event loop and the scheduler
// service: max(1, Scenario.Hosts) real service.Servers behind one real
// federation.Router, all on the scenario's virtual clock. A single host
// is a one-host federation — the ring has one target and every run
// lands on host 0 — so every topology takes the same code. The Mode is
// the transport:
//
//   - Direct resolves a run through Router.Lookup (ring owner, then the
//     owner's in-process registry) and calls Host.Next: no sockets, fast
//     enough for 100k-worker fleets.
//   - HTTP puts a loopServer — the request loop cmd/schedd serves with —
//     in front of the router and of each host, and speaks the real JSON
//     protocol one synchronous request at a time: every poll crosses
//     client → router → owning host, so strict decoding, the proxy's
//     status mapping and its 503 host-down path are inside the
//     deterministic loop.
//
// Equal seeds must produce bit-identical outcomes in both transports
// (TestModesAgree, TestFederatedModesAgree and the goldens pin that).
type backend struct {
	mode  Mode
	ttl   time.Duration
	now   func() time.Time
	names []string
	// dirs[i] is host i's journal directory ("host-<i>" under the
	// scenario's), empty when the scenario is journal-less; jrs[i] is
	// its open write-ahead log.
	dirs  []string
	jrs   []*durable.Log
	hosts []*service.Server
	rt    *federation.Router
	// hts[i] fronts host i and rts the router; HTTP transport only.
	hts []*loopServer
	rts *loopServer
	// dead marks crashed hosts; scavenged marks the dead whose journal a
	// RingChange already recovered into the fleet — a second one must
	// not re-import their runs.
	dead      []bool
	scavenged []bool
	// ids[run] is the run's id once it has been created.
	ids []string
}

// nextResult is a transport-neutral NextResponse.
type nextResult struct {
	status string
	tasks  []core.Task
	blocks int
	// hostDown reports the poll found no live master: the run's host
	// crashed (the router's 503, or a dead in-process host). The other
	// fields are meaningless when set.
	hostDown bool
}

// errHostDown is lookup's answer for a run whose owning host crashed.
var errHostDown = errors.New("host is down")

// newBackend starts the fleet: one server per host (each with its own
// journal under journalDir when that is set), one listener per server
// in HTTP mode, and the router over them at the scenario's ring epoch.
func newBackend(sc Scenario, mode Mode, now func() time.Time, journalDir string) (*backend, error) {
	n := max(1, sc.Hosts)
	b := &backend{
		mode:      mode,
		ttl:       sc.TTL,
		now:       now,
		names:     federation.HostNames(n),
		dirs:      make([]string, n),
		jrs:       make([]*durable.Log, n),
		hosts:     make([]*service.Server, n),
		dead:      make([]bool, n),
		scavenged: make([]bool, n),
		ids:       make([]string, len(sc.Runs)),
	}
	if mode == HTTP {
		b.hts = make([]*loopServer, n)
	}
	for i := range b.hosts {
		if journalDir != "" {
			b.dirs[i] = filepath.Join(journalDir, fmt.Sprintf("host-%d", i))
			if err := os.MkdirAll(b.dirs[i], 0o755); err != nil {
				b.close()
				return nil, err
			}
		}
		if err := b.start(i); err != nil {
			b.close()
			return nil, err
		}
	}
	if err := b.route(sc.RingEpoch); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// start brings host i up: its journal reopened (a restarted host
// recovers from it synchronously inside service.New, as `schedd
// -journal-dir` does at boot) and, in HTTP mode, its listener.
func (b *backend) start(i int) (err error) {
	if b.dirs[i] != "" {
		if b.jrs[i], err = durable.Open(b.dirs[i]); err != nil {
			return err
		}
	}
	b.hosts[i] = service.New(service.Options{TTL: ttlOption(b.ttl), GCInterval: -1, Now: b.now, Journal: b.jrs[i]})
	if err := b.hosts[i].RecoveryErr(); err != nil {
		return fmt.Errorf("cluster: recovering host %d: %w", i, err)
	}
	if b.mode == HTTP {
		b.hts[i], err = newLoopServer(b.hosts[i])
	}
	return err
}

// route (re)builds the router over the current servers at epoch and,
// in HTTP mode, puts it behind a fresh listener.
func (b *backend) route(epoch uint64) (err error) {
	targets := make([]federation.Target, len(b.hosts))
	for i, svc := range b.hosts {
		targets[i] = federation.Target{Name: b.names[i], JournalDir: b.dirs[i]}
		if b.mode == HTTP {
			targets[i].URL = b.hts[i].URL
		} else {
			targets[i].Server = svc
		}
	}
	if b.rt, err = federation.NewRouter(targets, federation.Options{Epoch: epoch}); err != nil {
		return err
	}
	if b.mode == HTTP {
		if b.rts != nil {
			b.rts.Close()
		}
		b.rts, err = newLoopServer(b.rt)
	}
	return err
}

// kill stops host i's listener and server. Its journal stays open until
// the scenario ends: a SIGKILL leaves the directory behind, and
// RecoverHost reads it cold.
func (b *backend) kill(i int) {
	if b.mode == HTTP {
		b.hts[i].Close()
	}
	b.hosts[i].Close()
}

// ttlOption maps the scenario's "0 disables" convention onto
// service.Options' "0 means default, negative disables".
func ttlOption(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		return -1
	}
	return ttl
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

// do is one synchronous request through the router: its listener over
// HTTP, its ServeHTTP in process.
func (b *backend) do(method, path string, in, out any) (int, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return 0, err
		}
	}
	var resp *http.Response
	if b.mode == HTTP {
		req, err := http.NewRequest(method, b.rts.URL+path, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		if resp, err = b.rts.Client().Do(req); err != nil {
			return 0, err
		}
	} else {
		rec := httptest.NewRecorder()
		b.rt.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		resp = rec.Result()
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := service.DecodeStrict(resp.Body, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// get is a GET through the router that must answer 200.
func (b *backend) get(path string, out any) error {
	code, err := b.do("GET", path, nil, out)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, code)
	}
	return err
}

// create registers run through the router, as a client would, and
// returns its wire info. An unpinned id is minted by the router; it is
// wall-clock salted and kept out of Hash().
func (b *backend) create(run int, spec RunSpec) (service.RunInfo, error) {
	var info service.RunInfo
	code, err := b.do("POST", "/v1/runs", spec.request(), &info)
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("create run %q: status %d", spec.RunID, code)
	}
	if err != nil {
		return service.RunInfo{}, err
	}
	if owner := b.rt.OwnerOf(info.ID); b.dead[owner] {
		// In process the router reaches a crashed host's server too.
		return service.RunInfo{}, fmt.Errorf("run %q arrives on crashed host %d", info.ID, owner)
	}
	b.ids[run] = info.ID
	return info, nil
}

// lookup routes a direct-mode request the way the router does — ring
// owner (or override), then the owner's registry — and mirrors the
// server's liveness checks, so a swept or expired run fails as the
// HTTP path's 404/410 would instead of being served from a stale
// pointer.
func (b *backend) lookup(run int) (*service.Run, error) {
	id := b.ids[run]
	r, owner, ok := b.rt.Lookup(id)
	if b.dead[owner] {
		return nil, errHostDown
	}
	if !ok {
		return nil, fmt.Errorf("unknown run %q (swept)", id)
	}
	if r.Expired() {
		return nil, fmt.Errorf("run %q is expired", id)
	}
	return r, nil
}

// next is one worker poll: report completed, receive a verdict.
// conflict is the 409 lease-expired answer (the batch is lost to a
// reassignment and the worker must drop it); any other non-OK answer is
// a scenario bug and surfaces as err. A granted batch is written into
// grantBuf (append from length 0, growing it at most once per worker in
// steady state) — the caller owns the buffer and must not alias it with
// completed; r.tasks is only valid until the buffer's next reuse.
func (b *backend) next(run, worker int, completed, grantBuf []core.Task) (nextResult, bool, error) {
	if b.mode == HTTP {
		return b.nextHTTP(run, worker, completed, grantBuf)
	}
	r, err := b.lookup(run)
	if errors.Is(err, errHostDown) {
		return nextResult{hostDown: true}, false, nil
	}
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
	// The assignment's Tasks alias Host-internal per-worker buffers that
	// a later poll overwrites; the worker retains its batch across
	// events, so copy — into the caller's recycled grant buffer, which
	// keeps the steady-state poll loop allocation-free.
	res := nextResult{status: status, blocks: a.Blocks}
	if len(a.Tasks) > 0 {
		res.tasks = append(grantBuf, a.Tasks...)
	}
	return res, false, nil
}

func (b *backend) nextHTTP(run, worker int, completed, grantBuf []core.Task) (nextResult, bool, error) {
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
	case http.StatusServiceUnavailable:
		// The router's owner-unreachable answer: the run's host is gone.
		return nextResult{hostDown: true}, false, nil
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

// stats and traceOf snapshot the run's collectors.
func (b *backend) stats(run int) (service.StatsResponse, error) {
	var st service.StatsResponse
	if b.mode == HTTP {
		return st, b.get("/v1/runs/"+b.ids[run]+"/stats", &st)
	}
	r, err := b.lookup(run)
	if err != nil {
		return st, err
	}
	return r.Host.Stats(), nil
}

func (b *backend) traceOf(run int) (*trace.Trace, error) {
	if b.mode == HTTP {
		var tr service.TraceResponse
		err := b.get("/v1/runs/"+b.ids[run]+"/trace", &tr)
		return tr.Trace, err
	}
	r, err := b.lookup(run)
	if err != nil {
		return nil, err
	}
	return r.Host.Trace(), nil
}

// sweep runs one janitor pass on every live host.
func (b *backend) sweep() {
	for i, svc := range b.hosts {
		if !b.dead[i] {
			svc.SweepNow()
		}
	}
}

// ownerOf is the index of the host the router places run on right now
// (-1 before the run is created).
func (b *backend) ownerOf(run int) int {
	if b.ids[run] == "" {
		return -1
	}
	return b.rt.OwnerOf(b.ids[run])
}

// busFor is the event bus of the host serving run: scripted subscribers
// attach to it in process in both modes (the SSE wire framing is pinned
// by internal/service's own tests).
func (b *backend) busFor(run int) *events.Bus { return b.hosts[b.ownerOf(run)].Bus() }

// busTotals sums published/dropped across every host's bus.
func (b *backend) busTotals() (published, dropped uint64) {
	for _, svc := range b.hosts {
		published += svc.Bus().Published()
		dropped += svc.Bus().Dropped()
	}
	return published, dropped
}

// crashHost kills an entire host: its runs lose their master and every
// later poll against them reports hostDown. The router is not told: an
// un-scavenged run must keep routing to the corpse, not divert to a
// live host that never imported it. A later RingChange marks the host
// down as part of recovering it.
func (b *backend) crashHost(host int) {
	if !b.dead[host] {
		b.dead[host] = true
		b.kill(host)
	}
}

// migrate moves one run to host dest through the router's
// explicit-move primitive (fence, ship, replay, override).
func (b *backend) migrate(run, dest int) error {
	return b.rt.MigrateRun(b.ids[run], b.names[dest])
}

// ringChange steps the placement epoch, migrating every run whose owner
// moved. Crashed journaled hosts are scavenged first — their runs come
// back from disk into their new owners; a journal-less corpse's runs
// stay lost.
func (b *backend) ringChange(epoch uint64) error {
	// Mark every corpse down before scavenging any: the recovered runs'
	// new homes come from the live-owner walk, which must steer around
	// all of them, not just the host currently being recovered.
	for i := range b.hosts {
		if b.dead[i] && !b.scavenged[i] && b.jrs[i] != nil {
			if _, err := b.rt.MarkDown(b.names[i]); err != nil {
				return err
			}
		}
	}
	for i := range b.hosts {
		if b.dead[i] && !b.scavenged[i] && b.jrs[i] != nil {
			if err := b.rt.RecoverHost(b.names[i], epoch); err != nil {
				return err
			}
			b.scavenged[i] = true
		}
	}
	if b.rt.Ring().Epoch() != epoch {
		return b.rt.SetEpoch(epoch)
	}
	return nil
}

// checkpoint seals host 0's journal generation and snapshots every run
// on it.
func (b *backend) checkpoint() error { return b.hosts[0].Checkpoint() }

// crashMaster kills host 0 without flushing anything beyond what group
// commit already wrote — listener, server and journal handle — then
// restarts it from its journal directory: snapshots load, the tail
// replays, and the restarted master serves the exact pre-crash state
// from the first poll on. The router is rebuilt over the new server.
func (b *backend) crashMaster() error {
	b.kill(0)
	b.jrs[0].Close()
	if err := b.start(0); err != nil {
		return err
	}
	return b.route(b.rt.Ring().Epoch())
}

// placement snapshots the run ids as seen through the router and as
// held by each live host, for the placement invariants. Over HTTP the
// router's view is its real merged listing, to which an unreachable
// host contributes nothing; in process, where the router would still
// read a corpse's registry, it is the union of the live hosts'.
func (b *backend) placement() (router []string, perHost [][]string, err error) {
	perHost = make([][]string, len(b.hosts))
	for i, svc := range b.hosts {
		if b.dead[i] {
			continue
		}
		for _, r := range svc.Registry().Runs() {
			perHost[i] = append(perHost[i], r.ID)
		}
		if b.mode == Direct {
			router = append(router, perHost[i]...)
		}
	}
	if b.mode == HTTP {
		var list service.RunList
		if err = b.get("/v1/runs", &list); err != nil {
			return nil, nil, err
		}
		for _, ri := range list.Runs {
			router = append(router, ri.ID)
		}
	}
	sort.Strings(router)
	return router, perHost, nil
}

// close tears down whatever of the fleet is up; newBackend calls it on
// a fleet it could not finish.
func (b *backend) close() {
	if b.rts != nil {
		b.rts.Close()
	}
	for i, svc := range b.hosts {
		if svc == nil || b.dead[i] {
			continue
		}
		if b.mode == HTTP && b.hts[i] != nil {
			b.hts[i].Close()
		}
		svc.Close()
	}
	for _, jr := range b.jrs {
		if jr != nil {
			jr.Close()
		}
	}
}
