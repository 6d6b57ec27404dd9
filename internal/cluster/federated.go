package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
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

// This file is the federated seam: M real schedd hosts behind the real
// federation.Router, driven by the same event loop under one injected
// clock. The direct backend polls through Router.Lookup — the
// allocation-free in-process forwarding path — while the HTTP backend
// sends every request through the router's listener to the owning
// host's listener, so both proxy hops are inside the deterministic
// loop. Equal seeds must produce bit-identical outcomes across the two
// (TestFederated4x25kAcrossModes pins that, host crash included).

// hostOptions builds one federated host's server options. jr is nil
// for the classic journal-less topology; with Scenario.Journal every
// host gets its own write-ahead log, which arms migration's durable
// import and the HostCrash death path.
func hostOptions(ttl time.Duration, now func() time.Time, jr *durable.Log) service.Options {
	return service.Options{TTL: ttlOption(ttl), GCInterval: -1, Now: now, Journal: jr}
}

// hostJournals opens one journal per host under parent (subdirectory
// "host-<i>"). An empty parent means journal-less: all nils.
func hostJournals(parent string, n int) ([]*durable.Log, []string, error) {
	jrs := make([]*durable.Log, n)
	dirs := make([]string, n)
	if parent == "" {
		return jrs, dirs, nil
	}
	for i := 0; i < n; i++ {
		dirs[i] = filepath.Join(parent, fmt.Sprintf("host-%d", i))
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			closeJournals(jrs)
			return nil, nil, err
		}
		jr, err := durable.Open(dirs[i])
		if err != nil {
			closeJournals(jrs)
			return nil, nil, err
		}
		jrs[i] = jr
	}
	return jrs, dirs, nil
}

func closeJournals(jrs []*durable.Log) {
	for _, jr := range jrs {
		if jr != nil {
			jr.Close()
		}
	}
}

// --- federated direct backend ------------------------------------------

// federatedDirectBackend fronts M in-process service.Servers with a
// Router in direct mode. Polls route by ring lookup into the owning
// host's registry — no HTTP, no copies beyond the single-host path.
type federatedDirectBackend struct {
	rt    *federation.Router
	hosts []*service.Server
	dead  []bool
	// scavenged marks crashed hosts whose journal has already been
	// recovered into the fleet — a second RingChange must not re-import
	// their runs (the import would refuse the duplicates anyway).
	scavenged []bool
	jrs       []*durable.Log
	names     []string
	now       func() time.Time
	runs      []*service.Run
	owner     []int
}

func newFederatedDirectBackend(n int, epoch uint64, ttl time.Duration, now func() time.Time, journalDir string) (*federatedDirectBackend, error) {
	names := federation.HostNames(n)
	jrs, dirs, err := hostJournals(journalDir, n)
	if err != nil {
		return nil, err
	}
	b := &federatedDirectBackend{
		hosts:     make([]*service.Server, n),
		dead:      make([]bool, n),
		scavenged: make([]bool, n),
		jrs:       jrs,
		names:     names,
		now:       now,
	}
	targets := make([]federation.Target, n)
	for i := range b.hosts {
		b.hosts[i] = service.New(hostOptions(ttl, now, jrs[i]))
		targets[i] = federation.Target{Name: names[i], Server: b.hosts[i], JournalDir: dirs[i]}
	}
	rt, err := federation.NewRouter(targets, federation.Options{Epoch: epoch})
	if err != nil {
		closeJournals(jrs)
		return nil, err
	}
	b.rt = rt
	return b, nil
}

func (b *federatedDirectBackend) create(spec RunSpec) (service.RunInfo, error) {
	q := spec.request()
	if err := q.Validate(); err != nil {
		return service.RunInfo{}, err
	}
	owner := b.rt.OwnerOf(q.ID)
	if b.dead[owner] {
		return service.RunInfo{}, fmt.Errorf("run %q arrives on crashed host %d", q.ID, owner)
	}
	svc := b.hosts[owner]
	// The server's own run constructor, exactly as the single-host
	// direct backend builds runs, on the owning host's bus.
	run, err := service.Options{DefaultBatch: 1, Now: b.now, Events: svc.Bus()}.NewRun(q.ID, &q)
	if err != nil {
		return service.RunInfo{}, err
	}
	added, err := svc.Registry().AddNew(run)
	if err != nil {
		return service.RunInfo{}, fmt.Errorf("journaling run %q on host %d: %w", q.ID, owner, err)
	}
	if !added {
		return service.RunInfo{}, fmt.Errorf("run %q already exists on host %d", q.ID, owner)
	}
	b.runs = append(b.runs, run)
	b.owner = append(b.owner, owner)
	return run.Info(), nil
}

// lookup routes the poll the way the real router does — ring owner,
// then the owning host's registry — and mirrors the single-host
// backend's liveness checks so swept runs fail identically.
func (b *federatedDirectBackend) lookup(run int) (*service.Run, error) {
	r := b.runs[run]
	if r.Expired() {
		return nil, fmt.Errorf("run %q is expired", r.ID)
	}
	if got, _, ok := b.rt.Lookup(r.ID); !ok || got != r {
		return nil, fmt.Errorf("unknown run %q (swept)", r.ID)
	}
	return r, nil
}

func (b *federatedDirectBackend) next(run, worker int, completed, grantBuf []core.Task) (nextResult, bool, error) {
	if b.dead[b.owner[run]] {
		return nextResult{hostDown: true}, false, nil
	}
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
	res := nextResult{status: status, blocks: a.Blocks}
	if len(a.Tasks) > 0 {
		res.tasks = append(grantBuf, a.Tasks...)
	}
	return res, false, nil
}

func (b *federatedDirectBackend) sweep() {
	for i, svc := range b.hosts {
		if !b.dead[i] {
			svc.SweepNow()
		}
	}
}

func (b *federatedDirectBackend) stats(run int) (service.StatsResponse, error) {
	if b.dead[b.owner[run]] {
		return service.StatsResponse{}, fmt.Errorf("run %d's host %d is down", run, b.owner[run])
	}
	r, err := b.lookup(run)
	if err != nil {
		return service.StatsResponse{}, err
	}
	return r.Host.Stats(), nil
}

func (b *federatedDirectBackend) traceOf(run int) (*trace.Trace, error) {
	if b.dead[b.owner[run]] {
		return nil, fmt.Errorf("run %d's host %d is down", run, b.owner[run])
	}
	r, err := b.lookup(run)
	if err != nil {
		return nil, err
	}
	return r.Host.Trace(), nil
}

func (b *federatedDirectBackend) busFor(run int) *events.Bus { return b.hosts[b.owner[run]].Bus() }

func (b *federatedDirectBackend) busTotals() (uint64, uint64) {
	var pub, drop uint64
	for _, svc := range b.hosts {
		pub += svc.Bus().Published()
		drop += svc.Bus().Dropped()
	}
	return pub, drop
}

func (b *federatedDirectBackend) ownerOf(run int) int { return b.owner[run] }

func (b *federatedDirectBackend) crashHost(host int) error {
	if host < 0 || host >= len(b.hosts) {
		return fmt.Errorf("crash host %d of %d", host, len(b.hosts))
	}
	b.dead[host] = true
	// The router is NOT told yet: an un-scavenged run must keep routing
	// to the corpse (hostDown to its workers), not divert to a live
	// host that never imported it. RecoverHost marks the host down as
	// part of a later RingChange.
	return nil
}

// migrate moves one run through the router's explicit-move primitive,
// then re-resolves the backend's cached run pointers against the new
// placement.
func (b *federatedDirectBackend) migrate(run, dest int) error {
	if dest < 0 || dest >= len(b.hosts) {
		return fmt.Errorf("migrate to host %d of %d", dest, len(b.hosts))
	}
	if err := b.rt.MigrateRun(b.runs[run].ID, b.names[dest]); err != nil {
		return err
	}
	b.refresh()
	return nil
}

// ringChange steps the epoch. Crashed journaled hosts are scavenged
// first (their runs come back from disk into the new owners); hosts
// with no journal stay lost, exactly as before migration existed.
func (b *federatedDirectBackend) ringChange(epoch uint64) error {
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
		if err := b.rt.SetEpoch(epoch); err != nil {
			return err
		}
	}
	b.refresh()
	return nil
}

// refresh re-resolves the cached (run pointer, owner) pairs through
// the router after placement changed. Runs the router cannot find —
// lost with a journal-less crashed host — keep their stale cache; the
// dead[owner] check keeps answering hostDown for them.
func (b *federatedDirectBackend) refresh() {
	for i, r := range b.runs {
		if run, owner, ok := b.rt.Lookup(r.ID); ok {
			b.runs[i], b.owner[i] = run, owner
		}
	}
}

func (b *federatedDirectBackend) checkpoint() error {
	return fmt.Errorf("cluster: federated hosts have no single master (no checkpoint)")
}

func (b *federatedDirectBackend) crashMaster() error {
	return fmt.Errorf("cluster: federated hosts have no single master (use HostCrash)")
}

func (b *federatedDirectBackend) placement() ([]string, [][]string, error) {
	var router []string
	perHost := make([][]string, len(b.hosts))
	for i, svc := range b.hosts {
		if b.dead[i] {
			continue // a crashed host serves nothing, like its closed listener
		}
		for _, run := range svc.Registry().Runs() {
			perHost[i] = append(perHost[i], run.ID)
		}
		router = append(router, perHost[i]...)
	}
	sort.Strings(router)
	return router, perHost, nil
}

func (b *federatedDirectBackend) close() {
	for _, svc := range b.hosts {
		svc.Close()
	}
	closeJournals(b.jrs)
}

// --- federated HTTP backend --------------------------------------------

// federatedHTTPBackend runs every host behind its own loopback
// listener and the router behind another, each served as cmd/schedd
// serves it (loopServer); every worker poll crosses
// two real HTTP hops (client → router → owning host), so the proxy's
// streaming pass-through, status mapping and 503 host-down path are
// all inside the deterministic loop.
type federatedHTTPBackend struct {
	rt        *federation.Router
	rts       *loopServer
	client    *http.Client
	hosts     []*service.Server
	hts       []*loopServer
	dead      []bool
	scavenged []bool
	jrs       []*durable.Log
	names     []string
	ids       []string
	owner     []int
}

func newFederatedHTTPBackend(n int, epoch uint64, ttl time.Duration, now func() time.Time, journalDir string) (*federatedHTTPBackend, error) {
	names := federation.HostNames(n)
	jrs, dirs, err := hostJournals(journalDir, n)
	if err != nil {
		return nil, err
	}
	b := &federatedHTTPBackend{
		hosts:     make([]*service.Server, n),
		hts:       make([]*loopServer, n),
		dead:      make([]bool, n),
		scavenged: make([]bool, n),
		jrs:       jrs,
		names:     names,
	}
	targets := make([]federation.Target, n)
	for i := range b.hosts {
		b.hosts[i] = service.New(hostOptions(ttl, now, jrs[i]))
		if b.hts[i], err = newLoopServer(b.hosts[i]); err != nil {
			b.close()
			return nil, err
		}
		targets[i] = federation.Target{Name: names[i], URL: b.hts[i].URL, JournalDir: dirs[i]}
	}
	if b.rt, err = federation.NewRouter(targets, federation.Options{Epoch: epoch}); err != nil {
		b.close()
		return nil, err
	}
	if b.rts, err = newLoopServer(b.rt); err != nil {
		b.close()
		return nil, err
	}
	b.client = b.rts.Client()
	return b, nil
}

func (b *federatedHTTPBackend) do(method, path string, in, out any) (int, error) {
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
	req, err := http.NewRequest(method, b.rts.URL+path, body)
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

func (b *federatedHTTPBackend) create(spec RunSpec) (service.RunInfo, error) {
	var info service.RunInfo
	code, err := b.do("POST", "/v1/runs", spec.request(), &info)
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("create run %q: status %d", spec.RunID, code)
	}
	if err != nil {
		return service.RunInfo{}, err
	}
	b.ids = append(b.ids, info.ID)
	b.owner = append(b.owner, b.rt.OwnerOf(info.ID))
	return info, nil
}

func (b *federatedHTTPBackend) next(run, worker int, completed, grantBuf []core.Task) (nextResult, bool, error) {
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

func (b *federatedHTTPBackend) sweep() {
	for i, svc := range b.hosts {
		if !b.dead[i] {
			svc.SweepNow()
		}
	}
}

func (b *federatedHTTPBackend) stats(run int) (service.StatsResponse, error) {
	var st service.StatsResponse
	code, err := b.do("GET", "/v1/runs/"+b.ids[run]+"/stats", nil, &st)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("stats: status %d", code)
	}
	return st, err
}

func (b *federatedHTTPBackend) traceOf(run int) (*trace.Trace, error) {
	var tr service.TraceResponse
	code, err := b.do("GET", "/v1/runs/"+b.ids[run]+"/trace", nil, &tr)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("trace: status %d", code)
	}
	return tr.Trace, err
}

func (b *federatedHTTPBackend) busFor(run int) *events.Bus { return b.hosts[b.owner[run]].Bus() }

func (b *federatedHTTPBackend) busTotals() (uint64, uint64) {
	var pub, drop uint64
	for _, svc := range b.hosts {
		pub += svc.Bus().Published()
		drop += svc.Bus().Dropped()
	}
	return pub, drop
}

func (b *federatedHTTPBackend) ownerOf(run int) int { return b.owner[run] }

func (b *federatedHTTPBackend) crashHost(host int) error {
	if host < 0 || host >= len(b.hosts) {
		return fmt.Errorf("crash host %d of %d", host, len(b.hosts))
	}
	if !b.dead[host] {
		b.dead[host] = true
		// Close the listener first so the router's very next proxy
		// attempt fails deterministically, then stop the janitor. The
		// bus stays readable in process, like the direct mode's. The
		// journal handle stays open until the scenario ends — a real
		// SIGKILL leaves the directory, not the process, and RecoverHost
		// reads the directory cold.
		b.hts[host].Close()
		b.hosts[host].Close()
		// As in direct mode, the router is not told: un-scavenged runs
		// keep routing to the dead listener (hostDown) until a
		// RingChange recovers them, which marks the host down.
	}
	return nil
}

func (b *federatedHTTPBackend) migrate(run, dest int) error {
	if dest < 0 || dest >= len(b.hosts) {
		return fmt.Errorf("migrate to host %d of %d", dest, len(b.hosts))
	}
	if err := b.rt.MigrateRun(b.ids[run], b.names[dest]); err != nil {
		return err
	}
	b.refresh()
	return nil
}

func (b *federatedHTTPBackend) ringChange(epoch uint64) error {
	// As in direct mode: all corpses down before any scavenge, so the
	// live-owner walk never places a recovered run on a second corpse.
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
		if err := b.rt.SetEpoch(epoch); err != nil {
			return err
		}
	}
	b.refresh()
	return nil
}

func (b *federatedHTTPBackend) refresh() {
	for i, id := range b.ids {
		b.owner[i] = b.rt.OwnerOf(id)
	}
}

func (b *federatedHTTPBackend) checkpoint() error {
	return fmt.Errorf("cluster: federated hosts have no single master (no checkpoint)")
}

func (b *federatedHTTPBackend) crashMaster() error {
	return fmt.Errorf("cluster: federated hosts have no single master (use HostCrash)")
}

func (b *federatedHTTPBackend) placement() ([]string, [][]string, error) {
	// The router-visible view goes through the real merged listing —
	// unreachable hosts contribute nothing, exactly what a fleet
	// operator's client would see.
	var list service.RunList
	code, err := b.do("GET", "/v1/runs", nil, &list)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("router list: status %d", code)
	}
	if err != nil {
		return nil, nil, err
	}
	router := make([]string, 0, len(list.Runs))
	for _, ri := range list.Runs {
		router = append(router, ri.ID)
	}
	sort.Strings(router)
	perHost := make([][]string, len(b.hosts))
	for i, svc := range b.hosts {
		if b.dead[i] {
			continue
		}
		for _, run := range svc.Registry().Runs() {
			perHost[i] = append(perHost[i], run.ID)
		}
	}
	return router, perHost, nil
}

// close tears down whatever of the fleet is up; the constructor calls
// it on a fleet it could not finish.
func (b *federatedHTTPBackend) close() {
	if b.rts != nil {
		b.rts.Close()
	}
	for i := range b.hosts {
		if b.dead[i] || b.hosts[i] == nil {
			continue
		}
		if b.hts[i] != nil {
			b.hts[i].Close()
		}
		b.hosts[i].Close()
	}
	closeJournals(b.jrs)
}

// interface check: the federated backends satisfy the seam.
var (
	_ backend = (*federatedDirectBackend)(nil)
	_ backend = (*federatedHTTPBackend)(nil)
)
