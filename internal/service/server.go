package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/durable"
	"hetsched/internal/events"
	"hetsched/internal/pollserve"
	"hetsched/internal/ui"
)

// Options configures a Server.
type Options struct {
	// Shards is the run-registry shard count (default 8).
	Shards int
	// TTL expires runs idle for longer than this (default 15m; a
	// negative value disables time-based expiry).
	TTL time.Duration
	// GCInterval is the janitor period (default 1m; a negative value
	// disables the janitor — tests then call SweepNow directly).
	GCInterval time.Duration
	// DefaultBatch is the per-request task batch used when a run does
	// not specify one (default 1 — the paper's baseline of one
	// allocation step per master interaction).
	DefaultBatch int
	// DefaultLease is the assignment lease applied to runs that do not
	// set lease_seconds themselves: tasks a worker holds past the
	// lease are reclaimed and reassigned. 0 disables reclamation by
	// default (runs can still opt in per creation request).
	DefaultLease time.Duration
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Events is the observability bus runs publish to. Server.New
	// builds one when nil (sized by EventsBuffer); the cluster harness
	// injects a shared bus so direct mode and scripted subscribers see
	// the same streams.
	Events *events.Bus
	// EventsBuffer sizes the per-run event-retention ring (the SSE
	// Last-Event-ID resume window) and the default per-subscriber
	// buffer; 0 selects events.DefaultBuffer.
	EventsBuffer int
	// Now is the server's time source (default time.Now). Every Host
	// and the Registry's TTL sweep are built on it, so injecting a
	// virtual clock here (the internal/cluster harness does) makes
	// leases, traces, makespans and idle-expiry all run on virtual
	// time while the HTTP path stays byte-for-byte real.
	Now func() time.Time
	// Journal, when set, makes every run durable: each accepted
	// mutation is framed into this write-ahead log before its response
	// is released, and New replays the log (snapshot plus tail) back to
	// the exact pre-crash state before serving. The server does not own
	// the log — the caller opens and closes it (cmd/schedd does).
	Journal *durable.Log
	// SnapshotEvery is the checkpoint period: how often the janitor
	// snapshots every run and prunes the journal behind the snapshots
	// (0 disables periodic checkpoints; recovery then replays the whole
	// log). Only meaningful with Journal set and the janitor enabled.
	SnapshotEvery time.Duration
	// AsyncRecover makes New return immediately and replay the journal
	// in the background; until recovery finishes every endpoint except
	// /healthz answers 503 with Retry-After (the federation router
	// forwards that verbatim, so a fleet's clients see a well-formed
	// "owner is recovering" instead of hung requests).
	AsyncRecover bool
	// RecoverGate, when set with AsyncRecover, delays the start of the
	// background replay until the channel is closed — a test hook for
	// observing the recovering window deterministically.
	RecoverGate <-chan struct{}
	// MigrateClient is the HTTP client the migrate endpoint uses to push
	// transfer streams to a destination host (nil selects a default
	// client with a 30s timeout). Tests inject transports here.
	MigrateClient *http.Client
}

func (o *Options) fill() {
	if o.Shards == 0 {
		o.Shards = 8
	}
	if o.TTL == 0 {
		o.TTL = 15 * time.Minute
	} else if o.TTL < 0 {
		o.TTL = 0
	}
	if o.GCInterval == 0 {
		o.GCInterval = time.Minute
	} else if o.GCInterval < 0 {
		o.GCInterval = 0
	}
	if o.DefaultBatch < 1 {
		o.DefaultBatch = 1
	} else if o.DefaultBatch > maxBatch {
		o.DefaultBatch = maxBatch
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

// Server is the HTTP façade of the scheduler service. It is an
// http.Handler and a pollserve.Handler: cmd/schedd serves it through
// the request loop, which answers the poll route by ServePoll and leaves
// everything else to a net/http server over ServeHTTP.
//
//	POST   /v1/runs            create a run
//	GET    /v1/runs            list runs
//	GET    /v1/runs/{id}       run metadata
//	DELETE /v1/runs/{id}       expire a run
//	POST   /v1/runs/{id}/next  worker poll: report completions, get a batch
//	GET    /v1/runs/{id}/stats run statistics
//	GET    /v1/runs/{id}/trace recorded assignment trace (?gantt=1 for text)
//	GET    /v1/runs/{id}/events per-run event stream (SSE, Last-Event-ID resume)
//	GET    /v1/events          global event firehose (SSE, live only)
//	GET    /v1/metrics         aggregates (JSON; ?format=prometheus for text)
//	GET    /v1/ui              live Gantt dashboard (embedded, no external deps)
//	GET    /healthz            liveness probe
type Server struct {
	opts Options
	reg  *Registry
	// mux routes ServeHTTP; built on its first request, since pattern
	// registration costs more than the rest of New and an in-process
	// caller (the cluster harness's direct mode) never serves HTTP.
	mux     *http.ServeMux
	muxOnce sync.Once

	// recovering gates the API while the journal is being replayed
	// (503 + Retry-After); recovered releases the janitor, which must
	// not sweep or checkpoint state that is still being rebuilt. A
	// failed recovery fails closed: recoverErr is set, recovering stays
	// true forever (every request answers 503) and recovered is never
	// closed, so the janitor can never sweep a partial registry or
	// checkpoint-prune the generations that still hold the un-replayed
	// state.
	recovering atomic.Bool
	recovered  chan struct{}
	recoverMu  sync.Mutex
	recoverErr error

	// loopPolls counts the polls ServePoll answered: GET /v1/metrics
	// reports it beside polls, and the difference is the polls whose
	// heads sent them down the net/http path.
	loopPolls atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a Server and starts its GC janitor (if enabled). Call
// Close to stop the janitor.
func New(opts Options) *Server {
	opts.fill()
	if opts.Events == nil {
		opts.Events = events.NewBus(opts.EventsBuffer)
	}
	s := &Server{
		opts:      opts,
		reg:       NewRegistryWithClock(opts.Shards, opts.TTL, opts.Now),
		recovered: make(chan struct{}),
		stop:      make(chan struct{}),
	}
	s.reg.AttachBus(opts.Events)
	if opts.Journal != nil {
		s.reg.AttachJournal(opts.Journal)
	}
	if opts.Journal == nil {
		close(s.recovered)
	} else if opts.AsyncRecover {
		s.recovering.Store(true)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if s.opts.RecoverGate != nil {
				select {
				case <-s.opts.RecoverGate:
				case <-s.stop:
					return
				}
			}
			if _, err := s.opts.Recover(s.reg, s.opts.Journal); err != nil {
				s.failRecovery(err)
				return
			}
			s.recovering.Store(false)
			close(s.recovered)
		}()
	} else {
		if _, err := opts.Recover(s.reg, opts.Journal); err != nil {
			s.recovering.Store(true)
			s.failRecovery(err)
		} else {
			close(s.recovered)
		}
	}
	if opts.GCInterval > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
	return s
}

// failRecovery records a journal recovery failure and leaves the
// server fail-stopped: serving from a partial (or empty) registry
// would answer lies, and letting the janitor checkpoint would prune
// the very generations and snapshots that still hold the un-replayed
// acknowledged state. The intact journal directory outlives the
// process, so an operator can retry recovery on a restart.
func (s *Server) failRecovery(err error) {
	s.recoverMu.Lock()
	s.recoverErr = err
	s.recoverMu.Unlock()
	log.Printf("service: journal recovery failed; refusing to serve (journal left intact): %v", err)
}

// RecoveryErr returns the journal recovery failure, if any. cmd/schedd
// checks it after a synchronous recovery to fail fast; with
// AsyncRecover it may become non-nil at any time while the 503 gate is
// still closed.
func (s *Server) RecoveryErr() error {
	s.recoverMu.Lock()
	defer s.recoverMu.Unlock()
	return s.recoverErr
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/healthz" {
		if msg, retryAfter, gated := s.gate(); gated {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			writeError(w, http.StatusServiceUnavailable, msg)
			return
		}
	}
	s.muxOnce.Do(s.routes)
	s.mux.ServeHTTP(w, r)
}

// routes builds the mux ServeHTTP dispatches through.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleCreate)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleInfo)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/runs/{id}/next", s.handleNext)
	s.mux.HandleFunc("POST /v1/runs/{id}/migrate", s.handleMigrate)
	s.mux.HandleFunc("POST /v1/runs/import", s.handleImport)
	s.mux.HandleFunc("GET /v1/runs/{id}/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	s.mux.HandleFunc("GET /v1/events", s.handleFirehose)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/ui", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(ui.Dashboard)
	})
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
}

// gate is the 503 every endpoint but /healthz answers while the journal
// is being replayed, or for good once replay has failed.
func (s *Server) gate() (msg, retryAfter string, gated bool) {
	if !s.recovering.Load() {
		return "", "", false
	}
	if s.RecoveryErr() != nil {
		// Fail-stopped: recovery did not complete and never will in
		// this process. No Retry-After — retrying against this
		// process is pointless.
		return "journal recovery failed; server is fail-stopped", "", true
	}
	// The run table is mid-rebuild; nothing can be answered
	// truthfully yet. Retry-After makes the 503 well-formed for
	// pollers and for the federation router, which forwards it
	// verbatim to the fleet's clients.
	return "recovering from journal; retry shortly", "1", true
}

// Close stops the GC janitor and flushes the journal (if any) to
// stable storage. The handler keeps working; the journal itself stays
// open — its owner closes it.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	if s.opts.Journal != nil {
		if err := s.opts.Journal.Sync(); err != nil {
			log.Printf("service: syncing journal on close: %v", err)
		}
	}
}

// Registry exposes the run table (examples and tests use it).
func (s *Server) Registry() *Registry { return s.reg }

// Bus exposes the server's event bus (never nil after New).
func (s *Server) Bus() *events.Bus { return s.opts.Events }

// SweepNow runs one GC pass and returns the number of runs collected.
func (s *Server) SweepNow() int { return s.reg.Sweep() }

// Checkpoint snapshots every run and prunes the journal behind the
// snapshots (no-op without a journal). The janitor calls it on the
// SnapshotEvery period; tests and shutdown paths call it directly. It
// refuses to run until recovery has completed cleanly — checkpointing a
// partial registry would prune generations whose records were never
// replayed, turning a recoverable failure into permanent loss.
func (s *Server) Checkpoint() error {
	select {
	case <-s.recovered:
	default:
		return fmt.Errorf("service: checkpoint refused: journal recovery has not completed")
	}
	return s.reg.Checkpoint()
}

func (s *Server) janitor() {
	defer s.wg.Done()
	// Sweeping — or worse, checkpointing — a registry that recovery is
	// still rebuilding would interleave live mutations with replay.
	select {
	case <-s.stop:
		return
	case <-s.recovered:
	}
	tick := time.NewTicker(s.opts.GCInterval)
	defer tick.Stop()
	var ckpt <-chan time.Time
	if s.opts.Journal != nil && s.opts.SnapshotEvery > 0 {
		ct := time.NewTicker(s.opts.SnapshotEvery)
		defer ct.Stop()
		ckpt = ct.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.reg.Sweep()
		case <-ckpt:
			if err := s.reg.Checkpoint(); err != nil {
				log.Printf("service: checkpoint: %v", err)
			}
		}
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var q CreateRunRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if err := DecodeStrict(r.Body, &q); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	if err := q.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	id := q.ID
	if id == "" {
		id = s.reg.newID()
	} else if _, exists := s.reg.Get(id); exists {
		// Early duplicate check so the common conflict never constructs
		// a driver or publishes a spurious run_created; the addNew below
		// closes the remaining race window.
		writeError(w, http.StatusConflict, fmt.Sprintf("run %q already exists", id))
		return
	}
	run, err := s.opts.NewRun(id, &q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	added, err := s.reg.addNew(run)
	if err != nil {
		// The create never became durable, so the run was not
		// registered; the client must not poll a run that a restart can
		// forget.
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("journaling run %q: %v", id, err))
		return
	}
	if !added {
		writeError(w, http.StatusConflict, fmt.Sprintf("run %q already exists", id))
		return
	}
	writeJSON(w, http.StatusCreated, run.Info())
}

// NewRun constructs the Run a *validated* CreateRunRequest describes,
// applying the options' defaulting rules: Batch 0 inherits
// DefaultBatch (NewHost clamps below 1 to 1), lease_seconds 0 inherits
// DefaultLease and negative opts out, and every timestamp flows
// through Now (nil falls back to the wall clock). handleCreate and the
// cluster harness's direct mode share this constructor, so the
// transport-free path cannot drift from the HTTP one.
func (o Options) NewRun(id string, q *CreateRunRequest) (*Run, error) {
	drv, err := NewDriver(q)
	if err != nil {
		return nil, err
	}
	now := o.Now
	if now == nil {
		now = time.Now
	}
	batch := q.Batch
	if batch == 0 {
		batch = o.DefaultBatch
	}
	lease := o.DefaultLease
	if q.LeaseSeconds != 0 {
		lease = time.Duration(q.LeaseSeconds * float64(time.Second))
	}
	if lease < 0 {
		lease = 0
	}
	run := &Run{
		ID:       id,
		Kernel:   q.Kernel,
		Strategy: q.Strategy,
		N:        q.N,
		P:        q.P,
		Seed:     q.Seed,
		Beta:     q.Beta,
		Created:  now(),
		Host:     NewHostWithClock(drv, batch, lease, now),
	}
	if o.Events != nil {
		st := o.Events.Run(id)
		run.Host.AttachEvents(st)
		st.Publish(events.Event{
			Type:   events.TypeRunCreated,
			TimeNs: run.Created.UnixNano(),
			Worker: -1,
			Task:   -1,
			Count:  run.Host.Total(),
			State:  StateCreated,
		})
	}
	return run, nil
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	runs := s.reg.Runs()
	list := RunList{Runs: make([]RunInfo, 0, len(runs))}
	for _, run := range runs {
		list.Runs = append(list.Runs, run.Info())
	}
	writeJSON(w, http.StatusOK, list)
}

// find fetches the live run id names; without one it returns the status
// and message to refuse with.
func (s *Server) find(id string) (run *Run, code int, msg string) {
	run, ok := s.reg.Get(id)
	if !ok {
		if s.reg.MigratedOut(id) {
			// The tombstone makes a stale owner's rejection deterministic:
			// a worker that kept polling the old host after its run moved
			// learns the run is gone here for good, not merely unknown.
			return nil, http.StatusGone, fmt.Sprintf("run %q migrated to another host", id)
		}
		return nil, http.StatusNotFound, fmt.Sprintf("unknown run %q (expired runs are garbage collected)", id)
	}
	if run.Expired() {
		return nil, http.StatusGone, fmt.Sprintf("run %q is expired", id)
	}
	return run, 0, ""
}

// lookup is find for a net/http handler: it answers 404/410 itself when
// there is no live run.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Run, bool) {
	run, code, msg := s.find(r.PathValue("id"))
	if run == nil {
		writeError(w, code, msg)
		return nil, false
	}
	return run, true
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if run, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, run.Info())
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if run.Expire() {
		if err := s.reg.RecordExpire(run); err != nil {
			// The in-memory expiry stands (the flip is not undone), but
			// the client is told the truth: the deletion may not survive
			// a restart.
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("journaling expiry of %q: %v", run.ID, err))
			return
		}
		if st, ok := s.opts.Events.Lookup(run.ID); ok {
			st.Publish(events.Event{
				Type:   events.TypeState,
				TimeNs: s.opts.Now().UnixNano(),
				Worker: -1,
				Task:   -1,
				State:  StateExpired,
			})
		}
	}
	writeJSON(w, http.StatusOK, run.Info())
}

// nextScratch is the pooled per-request working set of the poll
// endpoint: the body bytes, the decoded completion report, and the
// response buffer. Pooling it makes a steady-state poll allocation-free
// on the service side of the transport.
type nextScratch struct {
	body  []byte
	tasks []core.Task
	out   []byte
}

var nextPool = sync.Pool{New: func() any { return new(nextScratch) }}

// scratchCap caps what a returned scratch may retain, so one huge
// report does not pin a megabyte buffer in the pool forever.
const scratchCap = 1 << 18

func putNextScratch(sc *nextScratch) {
	if cap(sc.body) > scratchCap || cap(sc.out) > scratchCap || cap(sc.tasks)*8 > scratchCap {
		return
	}
	nextPool.Put(sc)
}

// readBody drains r into the scratch buffer without the bytes.Buffer
// detour. MaxBytesReader has already bounded the stream.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// pollAnswer is what one poll comes to, whichever transport carried it.
// body aliases the scratch the poll ran on.
type pollAnswer struct {
	code       int
	retryAfter string // the Retry-After value, "" for none
	frame      bool   // body is an application/x-schedd-frame, not JSON
	body       []byte
}

func (a *pollAnswer) contentType() string {
	if a.frame {
		return ContentTypeFrame
	}
	return "application/json"
}

// refuse is the answer that carries msg as an ErrorResponse.
func refuse(code int, retryAfter, msg string) pollAnswer {
	return pollAnswer{code: code, retryAfter: retryAfter, body: ErrorResponse{Error: msg}.Body()}
}

// poll is POST /v1/runs/{id}/next without a transport: the recovery
// gate, the run lookup, the decode, Host.Next and the encode. framed
// says the body is a frame, acceptFrame that the answer may be one;
// bodyErr is the transport's failure to deliver the body, which ranks
// below the gate and the lookup.
func (s *Server) poll(sc *nextScratch, id string, framed, acceptFrame bool, body []byte, bodyErr error) pollAnswer {
	if msg, retryAfter, gated := s.gate(); gated {
		return refuse(http.StatusServiceUnavailable, retryAfter, msg)
	}
	run, code, msg := s.find(id)
	if run == nil {
		return refuse(code, "", msg)
	}
	if bodyErr != nil {
		return refuse(http.StatusBadRequest, "", fmt.Sprintf("decoding request: %v", bodyErr))
	}
	var worker int64
	var completed []core.Task
	if framed {
		var err error
		worker, completed, err = decodeNextRequestFrame(body, sc.tasks)
		if err != nil {
			return refuse(http.StatusBadRequest, "", fmt.Sprintf("decoding request: %v", err))
		}
	} else {
		var fast bool
		worker, completed, fast = parseNextRequest(body, sc.tasks)
		if !fast {
			// Outside the fast subset: the stdlib renders the
			// authoritative verdict (and error message) on the same
			// bytes.
			var q NextRequest
			if err := DecodeStrict(bytes.NewReader(body), &q); err != nil {
				return refuse(http.StatusBadRequest, "", fmt.Sprintf("decoding request: %v", err))
			}
			worker = int64(q.Worker)
			completed = sc.tasks[:0]
			for _, t := range q.Completed {
				completed = append(completed, core.Task(t))
			}
		}
	}
	sc.tasks = completed[:0]
	a, status, err := run.Host.Next(int(worker), completed)
	if err != nil {
		// A late report for a reclaimed task is a lost race, not a
		// protocol violation: 409 tells the worker its lease expired
		// and the reassignment won.
		var lerr *LeaseExpiredError
		if errors.As(err, &lerr) {
			return refuse(http.StatusConflict, "", err.Error())
		}
		// A fenced run is mid-handoff (409: retry and the router will
		// land you on the new owner) or already gone (410: this host
		// will never serve it again).
		var merr *MigratedError
		if errors.As(err, &merr) {
			if merr.Done {
				return refuse(http.StatusGone, "", err.Error())
			}
			return refuse(http.StatusConflict, "1", err.Error())
		}
		// A journal commit failure is the server's fault, not the
		// request's: 500, so the worker never acts on an acknowledgment
		// that was not made durable.
		var jerr *JournalError
		if errors.As(err, &jerr) {
			return refuse(http.StatusInternalServerError, "", err.Error())
		}
		return refuse(http.StatusBadRequest, "", err.Error())
	}
	lease := 0.0
	if status == StatusOK {
		lease = run.Host.Lease().Seconds()
	}
	if acceptFrame {
		sc.out = appendNextResponseFrame(sc.out[:0], status, a.Tasks, a.Blocks, lease)
		return pollAnswer{code: http.StatusOK, frame: true, body: sc.out}
	}
	sc.out = appendNextResponseJSON(sc.out[:0], status, a.Tasks, a.Blocks, lease)
	return pollAnswer{code: http.StatusOK, body: sc.out}
}

// handleNext carries a poll that came through net/http.
func (s *Server) handleNext(w http.ResponseWriter, r *http.Request) {
	sc := nextPool.Get().(*nextScratch)
	defer putNextScratch(sc)
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	var err error
	sc.body, err = readBody(r.Body, sc.body)
	a := s.poll(sc, r.PathValue("id"), r.Header.Get("Content-Type") == ContentTypeFrame,
		strings.Contains(r.Header.Get("Accept"), ContentTypeFrame), sc.body, err)
	h := w.Header()
	h.Set("Content-Type", a.contentType())
	h.Set("Content-Length", strconv.Itoa(len(a.body)))
	if a.retryAfter != "" {
		h.Set("Retry-After", a.retryAfter)
	}
	w.WriteHeader(a.code)
	w.Write(a.body)
}

// contentTypeFrame is ContentTypeFrame as the loop's header values are
// compared with it.
var contentTypeFrame = []byte(ContentTypeFrame)

// MaxPollBody implements pollserve.Handler.
func (s *Server) MaxPollBody() int64 { return s.opts.MaxBodyBytes }

// ServePoll implements pollserve.Handler: it carries a poll the request
// loop read off the socket itself, and appends the response net/http
// would have written for handleNext.
func (s *Server) ServePoll(dst []byte, r *pollserve.Request) []byte {
	s.loopPolls.Add(1)
	sc := nextPool.Get().(*nextScratch)
	a := s.poll(sc, r.ID, bytes.Equal(r.ContentType, contentTypeFrame),
		bytes.Contains(r.Accept, contentTypeFrame), r.Body, nil)
	dst = pollserve.AppendHead(dst, a.code, a.contentType(), a.retryAfter, len(a.body))
	dst = append(dst, a.body...)
	putNextScratch(sc)
	return dst
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	resp := run.Host.Stats()
	resp.ID = run.ID
	resp.Kernel = run.Kernel
	resp.Strategy = run.Strategy
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	tr := run.Host.Trace()
	if r.URL.Query().Get("gantt") != "" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, tr.Gantt(72))
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{ID: run.ID, Trace: tr})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is gone, so the client cannot be told; a
		// truncated body will fail its decode. Keep the server-side
		// signal instead of discarding it.
		log.Printf("service: encoding %T response: %v", v, err)
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}
