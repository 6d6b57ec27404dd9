package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"hetsched/internal/events"
)

// This file is the observability surface of the Server: the per-run
// SSE event stream (resumable against the retention ring via
// Last-Event-ID), the global firehose, and the /v1/metrics aggregates
// in JSON and Prometheus text form. Everything here is read-only with
// respect to the scheduler — handlers subscribe to the event bus and
// aggregate Host stats, never feed anything back — so attaching any
// number of (arbitrarily slow) observers cannot change a run's
// decisions.

// SSEHeartbeat paces keep-alive comments on an otherwise idle event
// stream; it is wall-clock by design (the virtual clock governs the
// scheduler, not the transport).
const SSEHeartbeat = 15 * time.Second

// handleRunEvents serves GET /v1/runs/{id}/events as an SSE stream.
// The resume cursor is the per-run sequence number: the Last-Event-ID
// header (standard EventSource reconnect) or ?after=N selects the
// first event strictly after it; events already evicted from the
// retention ring arrive as a "drops" frame, never silently skipped.
// ?max=N closes the stream after N events — the bounded-read form CI
// and scripts use.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.reg.Get(id); !ok {
		if _, live := s.opts.Events.Lookup(id); !live {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown run %q (expired runs are garbage collected)", id))
			return
		}
	}
	after, err := sseResumePoint(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	max, err := queryInt(r, "max")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sub := s.opts.Events.Run(id).Subscribe(after, s.opts.EventsBuffer)
	s.serveSSE(w, r, sub, max)
}

// handleFirehose serves GET /v1/events: every event of every run, live
// from now. The firehose keeps no retention ring, so there is no
// resume; ?max=N bounds the read as for the per-run stream.
func (s *Server) handleFirehose(w http.ResponseWriter, r *http.Request) {
	max, err := queryInt(r, "max")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sub := s.opts.Events.SubscribeFirehose(s.opts.EventsBuffer)
	s.serveSSE(w, r, sub, max)
}

// sseResumePoint extracts the resume cursor: the Last-Event-ID header
// (what a reconnecting EventSource sends) wins over ?after.
func sseResumePoint(r *http.Request) (uint64, error) {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("after")
	}
	if raw == "" {
		return 0, nil
	}
	after, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad resume point %q: %v", raw, err)
	}
	return after, nil
}

func queryInt(r *http.Request, key string) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s=%q: want a non-negative integer", key, raw)
	}
	return n, nil
}

// SSEStream frames one event subscriber as Server-Sent Events, for a
// host's streams and a federation router's fan-in of hosts' firehoses
// alike: accumulated drops as one `event: drops` frame before the
// events that follow the gap, then an `id:`+`data:` frame per event.
type SSEStream struct {
	*events.Subscriber
	buf      []events.Event
	frame    []byte
	reported uint64 // drops already surfaced to the client
}

// Frames polls the subscriber and hands emit each frame in order, event
// marking an event's. It stops at emit's first error and returns it;
// closed reports that the stream has ended.
func (s *SSEStream) Frames(emit func(frame []byte, event bool) error) (closed bool, err error) {
	evs, dropped, closed := s.Poll(s.buf[:0])
	s.buf = evs
	if dropped > s.reported {
		s.frame = fmt.Appendf(s.frame[:0], "event: drops\ndata: {\"dropped\":%d,\"total\":%d}\n\n", dropped-s.reported, dropped)
		s.reported = dropped
		if err := emit(s.frame, false); err != nil {
			return closed, err
		}
	}
	for _, e := range evs {
		data, err := json.Marshal(e)
		if err != nil {
			continue
		}
		s.frame = fmt.Appendf(s.frame[:0], "id: %d\ndata: %s\n\n", e.Seq, data)
		if err := emit(s.frame, true); err != nil {
			return closed, err
		}
	}
	return closed, nil
}

// SSEEnd is a stream's terminal frame, SSEPing the comment that keeps
// an idle one alive every SSEHeartbeat.
var SSEEnd, SSEPing = []byte("event: end\ndata: {}\n\n"), []byte(": ping\n\n")

// StartSSE answers 200 with the event-stream headers and flushes them;
// if w cannot stream, it answers 500 and returns false.
func StartSSE(w http.ResponseWriter) (http.Flusher, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return fl, true
}

// serveSSE pumps a subscriber to the client as SSEStream frames, SSEEnd
// when the stream closes (run swept) and SSEPing while idle. max > 0
// ends the response after that many event frames. Always closes the
// subscriber.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, sub *events.Subscriber, max int) {
	defer sub.Close()
	fl, ok := StartSSE(w)
	if !ok {
		return
	}
	heartbeat := time.NewTicker(SSEHeartbeat)
	defer heartbeat.Stop()
	stream, sent := SSEStream{Subscriber: sub}, 0
	write := func(frame []byte, event bool) error {
		w.Write(frame)
		if event {
			if sent++; max > 0 && sent >= max {
				return io.EOF // the response is complete
			}
		}
		return nil
	}
	for {
		closed, err := stream.Frames(write)
		if closed && err == nil {
			w.Write(SSEEnd)
		}
		fl.Flush()
		if closed || err != nil {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		case <-sub.Ready():
		case <-heartbeat.C:
			w.Write(SSEPing)
			fl.Flush()
		}
	}
}

// MetricsResponse is the JSON body of GET /v1/metrics: process-wide
// aggregates over every registered run plus the event bus's own
// counters. PerRun carries the full per-run stats (the same shape as
// /v1/runs/{id}/stats).
type MetricsResponse struct {
	Runs int `json:"runs"`
	// Hosts is the federated topology size when the response was
	// assembled by a federation router aggregating a fleet; a single
	// host leaves it 0 (omitted).
	Hosts int `json:"hosts,omitempty"`
	// Polls / PollsPerSecond aggregate master pressure across runs;
	// Assigned..Blocks are task-ledger totals (Outstanding is the live
	// in-flight window, the rest are monotone counters).
	Polls int `json:"polls"`
	// LoopPolls is the polls the request loop answered since the process
	// started (pollserve; summed over the hosts by a router). Polls
	// growing faster than LoopPolls means a client's request heads are
	// sending its polls down the net/http path.
	LoopPolls      uint64          `json:"loop_polls"`
	PollsPerSecond float64         `json:"polls_per_second"`
	Assigned       int             `json:"assigned"`
	Completed      int             `json:"completed"`
	Outstanding    int             `json:"outstanding"`
	Reclaimed      int             `json:"reclaimed"`
	Blocks         int             `json:"blocks"`
	BatchSizes     *BatchHistogram `json:"batch_sizes,omitempty"`
	// Event-bus counters: published and dropped are bus-lifetime totals
	// (they survive run sweeps), Subscribers is the current count.
	EventsPublished uint64          `json:"events_published"`
	EventsDropped   uint64          `json:"events_dropped"`
	Subscribers     int             `json:"subscribers"`
	PerRun          []StatsResponse `json:"per_run"`
}

// Metrics assembles the process-wide aggregates GET /v1/metrics
// serves. Exported so a federation router can fold the fleet's
// in-process hosts into one response without an HTTP round-trip.
func (s *Server) Metrics() MetricsResponse {
	runs := s.reg.Runs()
	m := MetricsResponse{
		Runs:            len(runs),
		LoopPolls:       s.loopPolls.Load(),
		EventsPublished: s.opts.Events.Published(),
		EventsDropped:   s.opts.Events.Dropped(),
		Subscribers:     s.opts.Events.Subscribers(),
		PerRun:          make([]StatsResponse, 0, len(runs)),
	}
	var merged BatchHistogram
	for _, run := range runs {
		st := run.Host.Stats()
		st.ID = run.ID
		st.Kernel = run.Kernel
		st.Strategy = run.Strategy
		m.Polls += st.Polls
		m.PollsPerSecond += st.PollsPerSecond
		m.Assigned += st.Assigned
		m.Completed += st.Completed
		m.Outstanding += st.Outstanding
		m.Reclaimed += st.Reclaimed
		m.Blocks += st.Blocks
		merged.Merge(st.BatchSizes)
		m.PerRun = append(m.PerRun, st)
	}
	if len(merged.Le) > 0 {
		m.BatchSizes = &merged
	}
	return m
}

// Merge folds other into h. Buckets align by index because Le[i] is
// always 1<<i. Exported so a federation router can fold per-host
// histograms into one fleet-wide distribution.
func (h *BatchHistogram) Merge(other *BatchHistogram) {
	if other == nil {
		return
	}
	for len(h.Le) < len(other.Le) {
		h.Le = append(h.Le, 1<<len(h.Le))
		h.Counts = append(h.Counts, 0)
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
}

// handleMetrics serves GET /v1/metrics: JSON by default,
// ?format=prometheus for the Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, m)
	case "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(m.Prometheus())
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (json or prometheus)", format))
	}
}

// Prometheus renders the metrics in the Prometheus text exposition
// format (version 0.0.4): # HELP and # TYPE lines per family, the
// batch-size histogram as a native histogram family with cumulative
// le buckets, and a small per-run gauge set labeled by run id.
func (m MetricsResponse) Prometheus() []byte {
	var b []byte
	family := func(name, help, typ string) {
		b = append(b, "# HELP schedd_"+name+" "+help+"\n"...)
		b = append(b, "# TYPE schedd_"+name+" "+typ+"\n"...)
	}
	sample := func(name, labels string, v float64) {
		b = append(b, "schedd_"+name...)
		if labels != "" {
			b = append(b, '{')
			b = append(b, labels...)
			b = append(b, '}')
		}
		b = append(b, ' ')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, '\n')
	}
	family("runs", "Number of registered runs.", "gauge")
	sample("runs", "", float64(m.Runs))
	if m.Hosts > 0 {
		family("hosts", "Schedd hosts behind this federation router.", "gauge")
		sample("hosts", "", float64(m.Hosts))
	}
	family("polls_total", "Worker poll interactions across all runs.", "counter")
	sample("polls_total", "", float64(m.Polls))
	family("loop_polls_total", "Worker polls answered by the request loop, without net/http.", "counter")
	sample("loop_polls_total", "", float64(m.LoopPolls))
	family("polls_per_second", "Aggregate poll rate across runs (polls over elapsed time).", "gauge")
	sample("polls_per_second", "", m.PollsPerSecond)
	family("tasks_assigned_total", "Tasks handed out (reassignments count again).", "counter")
	sample("tasks_assigned_total", "", float64(m.Assigned))
	family("tasks_completed_total", "Task completions accepted exactly once.", "counter")
	sample("tasks_completed_total", "", float64(m.Completed))
	family("tasks_outstanding", "Tasks currently assigned and not yet completed.", "gauge")
	sample("tasks_outstanding", "", float64(m.Outstanding))
	family("tasks_reclaimed_total", "Tasks reclaimed by lease expiry.", "counter")
	sample("tasks_reclaimed_total", "", float64(m.Reclaimed))
	family("blocks_total", "Communication volume in blocks (the paper's metric).", "counter")
	sample("blocks_total", "", float64(m.Blocks))
	family("events_published_total", "Events published to the observability bus.", "counter")
	sample("events_published_total", "", float64(m.EventsPublished))
	family("events_dropped_total", "Events dropped at full subscriber buffers.", "counter")
	sample("events_dropped_total", "", float64(m.EventsDropped))
	family("event_subscribers", "Currently attached event subscribers.", "gauge")
	sample("event_subscribers", "", float64(m.Subscribers))
	if m.BatchSizes != nil {
		family("batch_size", "Distribution of served batch sizes (tasks per grant).", "histogram")
		cum := int64(0)
		for i, c := range m.BatchSizes.Counts {
			cum += c
			sample("batch_size_bucket", fmt.Sprintf(`le="%d"`, m.BatchSizes.Le[i]), float64(cum))
		}
		sample("batch_size_bucket", `le="+Inf"`, float64(cum))
		sample("batch_size_count", "", float64(cum))
	}
	// All samples of a family must be grouped under its # TYPE line,
	// so the per-run gauges emit family by family, not run by run. A
	// router-aggregated response carries the owning host as an extra
	// label; a single host's rows stay unlabeled beyond the run id.
	runLabels := func(st StatsResponse) string {
		if st.Host == "" {
			return fmt.Sprintf(`run=%q`, st.ID)
		}
		return fmt.Sprintf(`run=%q,host=%q`, st.ID, st.Host)
	}
	if len(m.PerRun) > 0 {
		family("run_completed", "Completed tasks, per run.", "gauge")
		for _, st := range m.PerRun {
			sample("run_completed", runLabels(st), float64(st.Completed))
		}
		family("run_outstanding", "Outstanding tasks, per run.", "gauge")
		for _, st := range m.PerRun {
			sample("run_outstanding", runLabels(st), float64(st.Outstanding))
		}
		family("run_polls_per_second", "Poll rate, per run.", "gauge")
		for _, st := range m.PerRun {
			sample("run_polls_per_second", runLabels(st), st.PollsPerSecond)
		}
	}
	return b
}
