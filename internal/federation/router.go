package federation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
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
// and URL must be set: Server names a host in this process (the router
// calls it directly), URL a remote daemon's base URL (e.g.
// "http://10.0.0.7:8080", reached over HTTP). NewRouter reads which one
// once and builds the target's peer from it.
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
	// target's runs from it (durable.ReadRuns) into their new ring
	// owners; without it a crash still loses the dead host's runs.
	JournalDir string
}

// Options configures a Router.
type Options struct {
	// Vnodes is the per-host virtual-node count (0 → DefaultVnodes).
	Vnodes int
	// Epoch is the placement epoch; all routers of a fleet must agree.
	Epoch uint64
}

// retryAfter is the Retry-After value of the router's own 503s: a run
// mid-handoff, or an owning host that could not be reached.
const retryAfter = "1"

// Router fronts a fleet of schedd hosts behind the single-host HTTP
// surface. Per-run endpoints — polls included — are routed by the run
// id in the URL path (the protocol keeps the id out of the body
// precisely so routing needs no decode) and handed to the owner's peer
// (peer.go) untouched: an in-process host's handler is invoked on the
// original request and response writer (zero copies, zero allocations
// added to the host's own poll path); a remote host's request goes out
// whole, in one write on a pooled keep-alive connection, and the answer
// comes back on the handler's goroutine (upstream.go) — bodies opaque,
// JSON and application/x-schedd-frame alike, with Content-Type, Accept
// and Last-Event-ID forwarded, event streams flushed as they arrive.
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
	// peers[i] is how the router reaches targets[i] (peer.go).
	peers []peer

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
	// The cold calls to URL targets (the /v1/runs and /v1/metrics
	// fan-in, the firehose, the migrate and import calls of a rebalance
	// or a recovery) share this client. Run creation and every per-run
	// request, polls among them, take the upstream hop (upstream.go).
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost:   64,
		ResponseHeaderTimeout: 10 * time.Second,
	}}
	rt := &Router{
		peers: make([]peer, len(targets)),
		idrng: rng.New(uint64(time.Now().UnixNano())),
	}
	names := make([]string, len(targets))
	for i := range targets {
		t := &targets[i]
		if (t.Server == nil) == (t.URL == "") {
			return nil, fmt.Errorf("federation: target %d must set exactly one of Server and URL", i)
		}
		if t.Name == "" {
			t.Name = t.URL
		}
		if t.Name == "" {
			return nil, fmt.Errorf("federation: target %d needs a Name", i)
		}
		if t.Server != nil {
			rt.peers[i] = &local{name: t.Name, srv: t.Server}
		} else {
			up, err := newUpstream(t.URL)
			if err != nil {
				return nil, fmt.Errorf("federation: target %d: %w", i, err)
			}
			rt.peers[i] = &remote{upstream: up, name: t.Name, url: t.URL, client: client}
		}
		names[i] = t.Name
	}
	ring, err := NewRing(names, opts.Vnodes, opts.Epoch)
	if err != nil {
		return nil, err
	}
	rt.targets = append([]Target(nil), targets...)
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
	return ownerOn(rt.ring.Load(), id, rt.down.Load())
}

// Lookup routes id through the ring and fetches the run from the
// owning host's in-process registry: the transport-free poll-
// forwarding path of in-process fleets — one ring lookup plus one
// map read, zero allocations (TestRouterLookupNextAllocFree
// pins it). ok is false when the run is unknown on its owner or the
// owner is a remote target, which has no in-process handle to return.
func (rt *Router) Lookup(id string) (run *service.Run, owner int, ok bool) {
	owner = rt.owner(id)
	run, ok = rt.peers[owner].lookup(id)
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
			if rt.isMoving(id) {
				rt.unavailable(w, movingMsg(id))
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

// ServePoll implements pollserve.Handler: ServeHTTP's per-run branch
// for a poll the request loop read off the socket itself. A poll for a
// URL target goes from the loop's buffer to the upstream hop and back,
// through net/http nowhere; one for an in-process host is its
// ServePoll.
func (rt *Router) ServePoll(dst []byte, r *pollserve.Request) []byte {
	rt.loopPolls.Add(1)
	if rt.isMoving(r.ID) {
		return appendUnavailable(dst, movingMsg(r.ID))
	}
	owner := rt.owner(r.ID)
	if out, err := rt.peers[owner].poll(dst, r); err == nil {
		return out
	}
	return appendUnavailable(dst, rt.unreachableMsg(owner))
}

// appendUnavailable is unavailable for a poll the request loop read: the
// router's own 503, msg as errJSON writes it.
func appendUnavailable(dst []byte, msg string) []byte {
	body := service.ErrorResponse{Error: msg}.Body()
	dst = pollserve.AppendHead(dst, http.StatusServiceUnavailable, "application/json", retryAfter, len(body))
	return append(dst, body...)
}

// forward hands the request to target owner's peer: an in-process
// host's handler sees the original request (a 404 for an unknown run id
// is the host's own answer passing through), a remote one's request
// takes the upstream hop.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, owner int) {
	switch err := rt.peers[owner].forward(w, r); {
	case err == nil:
	case err == errBodyTooLarge:
		errJSON(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", pollserve.MaxBody))
	case errors.Is(err, errClientBody):
		errJSON(w, http.StatusBadRequest, err.Error())
	default:
		rt.unavailable(w, rt.unreachableMsg(owner))
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

// unavailable answers with the router's own 503 and a Retry-After hint:
// a run mid-handoff, or an owning host that could not be reached or did
// not answer.
func (rt *Router) unavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", retryAfter)
	errJSON(w, http.StatusServiceUnavailable, msg)
}

// unreachableMsg words the 503 for an owning host the hop gave up on.
// The raw transport error is deliberately not echoed — it varies by OS
// and timing, and the client's correct move (back off, retry, let the
// fleet operator restart the host) does not depend on it.
func (rt *Router) unreachableMsg(owner int) string {
	return fmt.Sprintf("schedd host %q unreachable", rt.targets[owner].Name)
}

// handleCreate is the placement cold path: decode the request (the
// one body the router reads), mint an id unless the client pinned
// one, and forward the re-encoded request to the owner of that id.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	var q service.CreateRunRequest
	r.Body = http.MaxBytesReader(w, r.Body, pollserve.MaxBody)
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
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, "/v1/runs", bytes.NewReader(body))
	if err != nil {
		errJSON(w, http.StatusInternalServerError, err.Error())
		return
	}
	req.Header.Set("Content-Type", "application/json")
	rt.forward(w, req, owner)
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
	for _, p := range rt.peers {
		if part, err := p.runs(); err == nil {
			list.Runs = append(list.Runs, part...)
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
	for i, p := range rt.peers {
		tm, err := p.metrics()
		if err != nil {
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
			st.Host = rt.targets[i].Name
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func errJSON(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, service.ErrorResponse{Error: msg})
}
