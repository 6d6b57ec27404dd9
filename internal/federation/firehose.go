package federation

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hetsched/internal/events"
)

// sseHeartbeat matches the single-host server's idle comment cadence.
const sseHeartbeat = 15 * time.Second

// errSinkDone reports that the fan-in sink stopped accepting frames
// (client gone or ?max reached); pumps unwind on it.
var errSinkDone = errors.New("federation: sse sink done")

// sseSink serializes SSE frames from the per-host pump goroutines
// onto one client connection and enforces the shared ?max budget.
type sseSink struct {
	mu     sync.Mutex
	w      http.ResponseWriter
	fl     http.Flusher
	max    int // 0 = unbounded
	sent   int
	closed bool
	done   chan struct{} // closed exactly once, under mu
}

// frame writes one complete SSE frame (terminated by the blank line
// the caller already appended). counted marks scheduler-event frames,
// the ones the ?max budget meters; drops frames and heartbeats pass
// for free, like on the single-host stream.
func (s *sseSink) frame(b []byte, counted bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errSinkDone
	}
	if _, err := s.w.Write(b); err != nil {
		s.closeLocked()
		return errSinkDone
	}
	s.fl.Flush()
	if counted {
		s.sent++
		if s.max > 0 && s.sent >= s.max {
			s.closeLocked()
			return errSinkDone
		}
	}
	return nil
}

func (s *sseSink) closeLocked() {
	if !s.closed {
		s.closed = true
		close(s.done)
	}
}

func (s *sseSink) close() {
	s.mu.Lock()
	s.closeLocked()
	s.mu.Unlock()
}

// handleFirehose serves GET /v1/events on the router: every event of
// every run on every host, fanned into one SSE stream. Each host's
// frames keep their own sequence numbers (streams number
// independently, so ids are informational across hosts — the firehose
// has no resume on a single host either). ?max=N closes the response
// after N event frames fleet-wide. Frames from different hosts
// interleave in arrival order; frames from one host stay in order.
func (rt *Router) handleFirehose(w http.ResponseWriter, r *http.Request) {
	max := 0
	if raw := r.URL.Query().Get("max"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			errJSON(w, http.StatusBadRequest, fmt.Sprintf("bad max=%q: want a non-negative integer", raw))
			return
		}
		max = n
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		errJSON(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	sink := &sseSink{w: w, fl: fl, max: max, done: make(chan struct{})}
	var pumps sync.WaitGroup
	for _, p := range rt.peers {
		pumps.Add(1)
		go func() {
			defer pumps.Done()
			p.pump(sink, r)
		}()
	}

	// The handler goroutine owns the heartbeat and the client-gone
	// signal; pumps only ever write through the sink.
	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	allDone := make(chan struct{})
	go func() { pumps.Wait(); close(allDone) }()
	defer func() { sink.close(); <-allDone }()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-sink.done:
			return
		case <-allDone:
			// Every host's stream ended (all unreachable, or all ended
			// server-side): terminal frame, mirroring serveSSE.
			sink.frame([]byte("event: end\ndata: {}\n\n"), false)
			return
		case <-heartbeat.C:
			if sink.frame([]byte(": ping\n\n"), false) != nil {
				return
			}
		}
	}
}

// pump drains the host's firehose into the sink, framing events
// exactly as the single-host serveSSE does.
func (p *local) pump(sink *sseSink, _ *http.Request) {
	sub := p.srv.Bus().SubscribeFirehose(0)
	defer sub.Close()
	var (
		buf      []events.Event
		frame    bytes.Buffer
		reported uint64
	)
	for {
		evs, dropped, closed := sub.Poll(buf[:0])
		buf = evs
		if dropped > reported {
			frame.Reset()
			fmt.Fprintf(&frame, "event: drops\ndata: {\"dropped\":%d,\"total\":%d}\n\n", dropped-reported, dropped)
			reported = dropped
			if sink.frame(frame.Bytes(), false) != nil {
				return
			}
		}
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			frame.Reset()
			fmt.Fprintf(&frame, "id: %d\ndata: %s\n\n", e.Seq, data)
			if sink.frame(frame.Bytes(), true) != nil {
				return
			}
		}
		if closed {
			return
		}
		select {
		case <-sink.done:
			return
		case <-sub.Ready():
		}
	}
}

// pump streams the remote host's /v1/events and re-frames it into
// the sink: lines accumulate until the blank frame terminator, then
// the whole frame forwards atomically (so interleaved hosts never
// tear each other's frames). The remote's own heartbeats and terminal
// end frames are absorbed — the fan-in has its own heartbeat, and the
// merged stream ends only when every host's does.
func (p *remote) pump(sink *sseSink, r *http.Request) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, p.url+"/v1/events", nil)
	if err != nil {
		return
	}
	resp, err := p.client.Do(req)
	if err != nil {
		// Unreachable host: surface it in-stream (headers are gone) and
		// let the merged stream continue with the reachable fleet.
		var frame bytes.Buffer
		fmt.Fprintf(&frame, "event: unreachable\ndata: {\"host\":%q}\n\n", p.name)
		sink.frame(frame.Bytes(), false)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var frame bytes.Buffer
	counted := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			if frame.Len() > 0 {
				frame.WriteByte('\n')
				if sink.frame(frame.Bytes(), counted) != nil {
					return
				}
				frame.Reset()
				counted = false
			}
			continue
		}
		if line[0] == ':' { // remote heartbeat — absorbed
			continue
		}
		if bytes.Equal(line, []byte("event: end")) {
			// Swallow this host's terminal frame (and its data line,
			// which the blank-line branch will discard with the frame).
			frame.Reset()
			counted = false
			// Skip until the frame ends.
			for sc.Scan() && len(sc.Bytes()) > 0 {
			}
			continue
		}
		if bytes.HasPrefix(line, []byte("id: ")) {
			counted = true
		}
		frame.Write(line)
		frame.WriteByte('\n')
	}
}
