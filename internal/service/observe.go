package service

import (
	"encoding/json"
	"fmt"
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

// sseHeartbeat paces keep-alive comments on an otherwise idle event
// stream; it is wall-clock by design (the virtual clock governs the
// scheduler, not the transport).
const sseHeartbeat = 15 * time.Second

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

// serveSSE pumps a subscriber to the client as Server-Sent Events:
// scheduler events as `id:`+`data:` frames, accumulated drops as
// `event: drops` frames (emitted before the events that follow the
// gap), a terminal `event: end` frame when the stream closes (run
// swept), and comment heartbeats while idle. max > 0 ends the response
// after that many event frames. Always closes the subscriber.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, sub *events.Subscriber, max int) {
	defer sub.Close()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	var (
		buf      []events.Event
		reported uint64 // drops already surfaced to this client
		sent     int
	)
	for {
		evs, dropped, closed := sub.Poll(buf[:0])
		buf = evs
		if dropped > reported {
			fmt.Fprintf(w, "event: drops\ndata: {\"dropped\":%d,\"total\":%d}\n\n", dropped-reported, dropped)
			reported = dropped
		}
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", e.Seq, data)
			sent++
			if max > 0 && sent >= max {
				fl.Flush()
				return
			}
		}
		if closed {
			fmt.Fprint(w, "event: end\ndata: {}\n\n")
			fl.Flush()
			return
		}
		fl.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		case <-sub.Ready():
		case <-heartbeat.C:
			fmt.Fprint(w, ": ping\n\n")
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
