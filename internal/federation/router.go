package federation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetsched/internal/pollserve"
	"hetsched/internal/rng"
	"hetsched/internal/service"
	"hetsched/internal/ui"
)

// Target is one schedd host behind the router. Exactly one of Server
// (in-process handle, direct mode) and URL (base URL of a remote
// daemon, e.g. "http://10.0.0.7:8080") must be set.
type Target struct {
	// Name is the host's ring identity: placement hashes it, and the
	// aggregated metrics label per-run rows with it. Every router
	// fronting the same fleet must use the same names in any order —
	// defaulting Name to URL in daemon mode does that for free.
	Name   string
	Server *service.Server
	URL    string
	// JournalDir, when set, is the host's journal directory as seen
	// from the router's filesystem. RecoverHost scavenges a crashed
	// target's runs from it (durable.ExtractTransfer) into their new
	// ring owners; without it a crash still loses the dead host's runs.
	JournalDir string
}

// Options configures a Router.
type Options struct {
	// Vnodes is the per-host virtual-node count (0 → DefaultVnodes).
	Vnodes int
	// Epoch is the placement epoch; all routers of a fleet must agree.
	Epoch uint64
	// Client issues the router's cold calls to URL targets: run
	// creation, the /v1/runs and /v1/metrics fan-in, the firehose and
	// the migrate/import calls of a rebalance (default: a dedicated
	// client with a 10s response-header budget and no overall timeout).
	// Forwarded per-run requests, polls among them, do not go through
	// it: they take the router's own upstream hop (upstream.go).
	Client *http.Client
	// RetryAfter is the hint returned with 503 when an owning host is
	// unreachable (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes caps the request bodies the router reads: the create
	// and admin requests it decodes, and every body it forwards to a
	// URL target, which is read whole so that it leaves in one write;
	// a longer one answers 413 (default 1 MiB).
	MaxBodyBytes int64
}

// Router fronts a fleet of schedd hosts behind the single-host HTTP
// surface. Per-run endpoints — polls included — are routed by the run
// id in the URL path (the protocol keeps the id out of the body
// precisely so routing needs no decode) and passed through untouched:
// in direct mode the owning host's handler is invoked on the original
// request and response writer (zero copies, zero allocations added to
// the PR 7 poll path); in daemon mode the request goes out whole, in
// one write on a pooled keep-alive connection, and the answer comes
// back on the handler's goroutine (upstream.go) — bodies opaque, JSON
// and application/x-schedd-frame alike, with Content-Type, Accept and
// Last-Event-ID forwarded, event streams flushed as they arrive.
//
// Fleet-level endpoints are aggregated: POST /v1/runs assigns an id
// (when the client did not pin one) and places the run on its ring
// owner, GET /v1/runs merges the per-host listings, /v1/metrics sums
// counters across hosts and labels per-run rows with the owning host,
// and /v1/events fans every host's firehose into one SSE stream.
type Router struct {
	// ring is the live placement; SetEpoch swaps it atomically after a
	// rebalance, so the hot path pays one pointer load, no lock.
	ring    atomic.Pointer[Ring]
	targets []Target
	// ups[i] is the upstream hop of targets[i]; nil in direct mode.
	ups    []*upstream
	opts   Options
	client *http.Client

	// handoffMu serializes rebalances (SetEpoch, RecoverHost,
	// MigrateRun); moving holds the run ids mid-handoff (nil when none
	// — the steady-state poll path pays one nil check); down is a
	// bitmask of target indexes known dead, steered around by
	// OwnerLive; overrides maps runs placed off-ring by an explicit
	// MigrateRun (or stranded by a failed rebalance move) to their
	// actual holder, cleared when a rebalance reconciles the fleet to
	// its ring (nil when empty, so the steady path pays one nil check).
	handoffMu sync.Mutex
	moving    atomic.Pointer[map[string]bool]
	down      atomic.Uint64
	overrides atomic.Pointer[map[string]int32]

	// loopPolls counts the polls ServePoll answered (GET /v1/ring).
	loopPolls atomic.Uint64

	idmu  sync.Mutex
	idseq uint64
	idrng *rng.PCG
}

// NewRouter builds a router over targets. Placement is the consistent
// hash of target names under (Vnodes, Epoch) — see NewRing.
func NewRouter(targets []Target, opts Options) (*Router, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("federation: router needs at least one target")
	}
	names := make([]string, len(targets))
	ups := make([]*upstream, len(targets))
	for i := range targets {
		if (targets[i].Server == nil) == (targets[i].URL == "") {
			return nil, fmt.Errorf("federation: target %d must set exactly one of Server and URL", i)
		}
		if targets[i].URL != "" {
			up, err := newUpstream(targets[i].URL)
			if err != nil {
				return nil, fmt.Errorf("federation: target %d: %w", i, err)
			}
			ups[i] = up
		}
		if targets[i].Name == "" {
			targets[i].Name = targets[i].URL
		}
		if targets[i].Name == "" {
			return nil, fmt.Errorf("federation: target %d needs a Name", i)
		}
		names[i] = targets[i].Name
	}
	ring, err := NewRing(names, opts.Vnodes, opts.Epoch)
	if err != nil {
		return nil, err
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost:   64,
			ResponseHeaderTimeout: 10 * time.Second,
		}}
	}
	rt := &Router{
		targets: append([]Target(nil), targets...),
		ups:     ups,
		opts:    opts,
		client:  client,
		idrng:   rng.New(uint64(time.Now().UnixNano())),
	}
	rt.ring.Store(ring)
	return rt, nil
}

// Ring exposes the router's current placement ring.
func (rt *Router) Ring() *Ring { return rt.ring.Load() }

// OwnerOf returns the target index the router would route id to right
// now: the override table, then the ring steered around dead hosts —
// the authoritative placement, where Ring().Owner is only the pure
// hash. Allocation-free.
func (rt *Router) OwnerOf(id string) int { return rt.owner(id) }

// owner routes id: the override table first (runs explicitly migrated
// off-ring), then the current ring, steering around hosts marked
// down. Allocation-free either way.
func (rt *Router) owner(id string) int {
	if m := rt.overrides.Load(); m != nil {
		if o, ok := (*m)[id]; ok {
			return int(o)
		}
	}
	if mask := rt.down.Load(); mask != 0 {
		return rt.ring.Load().OwnerLive(id, mask)
	}
	return rt.ring.Load().Owner(id)
}

// Targets returns the fronted hosts (aliasing the router's slice; do
// not mutate).
func (rt *Router) Targets() []Target { return rt.targets }

// Lookup routes id through the ring and fetches the run from the
// owning host's in-process registry: the transport-free poll-
// forwarding path of direct mode — one ring lookup plus one sharded
// map read, zero allocations (TestRouterLookupNextAllocFree pins it).
// ok is false when the run is unknown on its owner or the owner is a
// remote target (daemon mode has no in-process handle to return).
func (rt *Router) Lookup(id string) (run *service.Run, owner int, ok bool) {
	owner = rt.owner(id)
	t := &rt.targets[owner]
	if t.Server == nil {
		return nil, owner, false
	}
	run, ok = t.Server.Registry().Get(id)
	return run, owner, ok
}

// ServeHTTP implements http.Handler. The hot path — every per-run
// endpoint — extracts the run id by slicing the URL path and hands
// the untouched request to the owning host.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	if rest, found := strings.CutPrefix(path, "/v1/runs/"); found && rest != "" && rest != "import" {
		// "import" is the host-level transfer endpoint, not a run id;
		// migrations are host-to-host and never traverse the router.
		id := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			id = rest[:i]
		}
		if id != "" {
			if m := rt.moving.Load(); m != nil && (*m)[id] {
				// Mid-handoff: neither copy may serve this run right now.
				// A deterministic 503 with a hint beats racing the
				// transfer; the next retry lands on the new owner.
				w.Header().Set("Retry-After", strconv.Itoa(int((rt.opts.RetryAfter+time.Second-1)/time.Second)))
				errJSON(w, http.StatusServiceUnavailable, fmt.Sprintf("run %q is migrating; retry", id))
				return
			}
			rt.forward(w, r, rt.owner(id))
			return
		}
	}
	switch path {
	case "/v1/runs":
		switch r.Method {
		case http.MethodPost:
			rt.handleCreate(w, r)
		case http.MethodGet:
			rt.handleList(w, r)
		default:
			errJSON(w, http.StatusMethodNotAllowed, "method not allowed")
		}
	case "/v1/ring":
		rt.handleRing(w, r)
	case "/v1/ring/epoch":
		rt.handleRingEpoch(w, r)
	case "/v1/ring/recover":
		rt.handleRingRecover(w, r)
	case "/v1/metrics":
		rt.handleMetrics(w, r)
	case "/v1/events":
		rt.handleFirehose(w, r)
	case "/v1/ui":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(ui.Dashboard)
	case "/healthz":
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"status":"ok"}`+"\n")
	default:
		errJSON(w, http.StatusNotFound, "not found")
	}
}

// isMoving reports whether id is mid-handoff: neither copy may serve the
// run right now. A deterministic 503 with a hint beats racing the
// transfer; the next retry lands on the new owner.
func (rt *Router) isMoving(id string) bool {
	m := rt.moving.Load()
	return m != nil && (*m)[id]
}

func movingMsg(id string) string { return fmt.Sprintf("run %q is migrating; retry", id) }

// retryAfter is the Retry-After value of the router's own 503s.
func (rt *Router) retryAfter() string {
	return strconv.Itoa(int((rt.opts.RetryAfter + time.Second - 1) / time.Second))
}

// MaxPollBody implements pollserve.Handler: the router's own cap, and
// in direct mode no more than its hosts take.
func (rt *Router) MaxPollBody() int64 {
	max := rt.opts.MaxBodyBytes
	for i := range rt.targets {
		if srv := rt.targets[i].Server; srv != nil {
			max = min(max, srv.MaxPollBody())
		}
	}
	return max
}

// ServePoll implements pollserve.Handler: ServeHTTP's per-run branch
// for a poll the request loop read off the socket itself. A poll for a
// URL target goes from the loop's buffer to the upstream hop and back,
// through net/http nowhere.
func (rt *Router) ServePoll(dst []byte, r *pollserve.Request) []byte {
	rt.loopPolls.Add(1)
	if rt.isMoving(r.ID) {
		return appendRefusal(dst, http.StatusServiceUnavailable, rt.retryAfter(), movingMsg(r.ID))
	}
	owner := rt.owner(r.ID)
	if srv := rt.targets[owner].Server; srv != nil {
		return srv.ServePoll(dst, r)
	}
	if out, err := rt.ups[owner].poll(dst, r); err == nil {
		return out
	}
	return appendRefusal(dst, http.StatusServiceUnavailable, rt.retryAfter(), rt.unreachableMsg(owner))
}

// appendRefusal appends a response of the router's own to a poll: msg
// as errJSON writes it.
func appendRefusal(dst []byte, status int, retryAfter, msg string) []byte {
	body := service.ErrorResponse{Error: msg}.Body()
	dst = pollserve.AppendHead(dst, status, "application/json", retryAfter, len(body))
	return append(dst, body...)
}

// forward hands the request to target owner: direct delegation for an
// in-process host (the handler sees the original request — a 404 for
// an unknown run id is the host's own answer passing through), the
// upstream hop for a remote one.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, owner int) {
	if srv := rt.targets[owner].Server; srv != nil {
		srv.ServeHTTP(w, r)
		return
	}
	switch err := rt.ups[owner].forward(w, r, rt.opts.MaxBodyBytes); {
	case err == nil:
	case err == errBodyTooLarge:
		errJSON(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", rt.opts.MaxBodyBytes))
	case errors.Is(err, errClientBody):
		errJSON(w, http.StatusBadRequest, err.Error())
	default:
		rt.unreachable(w, owner)
	}
}

// proxyHeaders are the request headers the hop forwards: the content
// negotiation pair (JSON vs binary frame is the backend's decision,
// the body passes through opaque either way) and the SSE resume cursor
// — spelled as net/http canonicalizes them, since the hop indexes the
// request's header map with them.
var proxyHeaders = [...]string{"Content-Type", "Accept", "Last-Event-Id", "Cache-Control"}

// acceptIdx is Accept's place in proxyHeaders; Content-Type's is
// contentTypeIdx, as in respHeaders.
const acceptIdx = 1

// unreachable answers for an owning host that could not be reached or
// did not answer: a deterministic 503 with a Retry-After hint. The raw
// transport error is deliberately not echoed — it varies by OS and
// timing, and the client's correct move (back off, retry, let the
// fleet operator restart the host) does not depend on it.
func (rt *Router) unreachable(w http.ResponseWriter, owner int) {
	w.Header().Set("Retry-After", rt.retryAfter())
	errJSON(w, http.StatusServiceUnavailable, rt.unreachableMsg(owner))
}

// unreachableMsg counts one failure of target owner and words the 503.
func (rt *Router) unreachableMsg(owner int) string {
	rt.ups[owner].failures.Add(1)
	return fmt.Sprintf("schedd host %q unreachable", rt.targets[owner].Name)
}

// handleCreate is the placement cold path: decode the request (the
// one body the router reads), mint an id unless the client pinned
// one, and forward to the ring owner of that id.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	var q service.CreateRunRequest
	r.Body = http.MaxBytesReader(w, r.Body, rt.opts.MaxBodyBytes)
	if err := service.DecodeStrict(r.Body, &q); err != nil {
		errJSON(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	if err := q.Validate(); err != nil {
		errJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	if q.ID == "" {
		q.ID = rt.newID()
	}
	owner := rt.owner(q.ID)
	body, err := json.Marshal(q)
	if err != nil {
		errJSON(w, http.StatusInternalServerError, fmt.Sprintf("encoding request: %v", err))
		return
	}
	t := &rt.targets[owner]
	if t.Server != nil {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, "/v1/runs", bytes.NewReader(body))
		if err != nil {
			errJSON(w, http.StatusInternalServerError, err.Error())
			return
		}
		req.Header.Set("Content-Type", "application/json")
		t.Server.ServeHTTP(w, req)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, t.URL+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		errJSON(w, http.StatusInternalServerError, err.Error())
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.unreachable(w, owner)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// newID mints a router-assigned run id: same shape as the registry's
// (sequence plus random suffix, wall-clock salted, outside any
// deterministic surface) with an "f" prefix so fleet-assigned ids are
// recognizable in logs.
func (rt *Router) newID() string {
	rt.idmu.Lock()
	rt.idseq++
	seq, suffix := rt.idseq, uint32(rt.idrng.Uint64())
	rt.idmu.Unlock()
	return fmt.Sprintf("f%04x-%08x", seq, suffix)
}

// handleList merges the per-host run listings into one RunList,
// ordered by creation time then id — the same order a single host's
// registry serves. Unreachable hosts contribute nothing (their runs
// are unreachable too); the reachable fleet's view stays useful.
func (rt *Router) handleList(w http.ResponseWriter, _ *http.Request) {
	list := service.RunList{Runs: []service.RunInfo{}}
	for i := range rt.targets {
		t := &rt.targets[i]
		if t.Server != nil {
			for _, run := range t.Server.Registry().Runs() {
				list.Runs = append(list.Runs, run.Info())
			}
			continue
		}
		var part service.RunList
		if err := rt.getJSON(t, "/v1/runs", &part); err == nil {
			list.Runs = append(list.Runs, part.Runs...)
		}
	}
	sort.Slice(list.Runs, func(i, j int) bool {
		if !list.Runs[i].Created.Equal(list.Runs[j].Created) {
			return list.Runs[i].Created.Before(list.Runs[j].Created)
		}
		return list.Runs[i].ID < list.Runs[j].ID
	})
	writeJSON(w, http.StatusOK, list)
}

// handleMetrics aggregates /v1/metrics across the fleet: counters
// sum, batch histograms merge bucket-wise, and every per-run row is
// labeled with its owning host (the dashboard's host column reads
// it). Unreachable hosts are skipped — a partial fleet view beats a
// 503 on the monitoring path.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := service.MetricsResponse{Hosts: len(rt.targets), PerRun: []service.StatsResponse{}}
	var merged service.BatchHistogram
	for i := range rt.targets {
		t := &rt.targets[i]
		var tm service.MetricsResponse
		if t.Server != nil {
			tm = t.Server.Metrics()
		} else if err := rt.getJSON(t, "/v1/metrics", &tm); err != nil {
			continue
		}
		m.Runs += tm.Runs
		m.Polls += tm.Polls
		m.LoopPolls += tm.LoopPolls
		m.PollsPerSecond += tm.PollsPerSecond
		m.Assigned += tm.Assigned
		m.Completed += tm.Completed
		m.Outstanding += tm.Outstanding
		m.Reclaimed += tm.Reclaimed
		m.Blocks += tm.Blocks
		m.EventsPublished += tm.EventsPublished
		m.EventsDropped += tm.EventsDropped
		m.Subscribers += tm.Subscribers
		merged.Merge(tm.BatchSizes)
		for _, st := range tm.PerRun {
			st.Host = t.Name
			m.PerRun = append(m.PerRun, st)
		}
	}
	if len(merged.Le) > 0 {
		m.BatchSizes = &merged
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, m)
	case "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(m.Prometheus())
	default:
		errJSON(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (json or prometheus)", format))
	}
}

// getJSON fetches path from a remote target with strict decoding.
func (rt *Router) getJSON(t *Target, path string, out any) error {
	resp, err := rt.client.Get(t.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return service.DecodeStrict(resp.Body, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func errJSON(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, service.ErrorResponse{Error: msg})
}
