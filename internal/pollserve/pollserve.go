// Package pollserve is the served side of one worker poll. A daemon
// listens through a Server: every accepted connection gets one goroutine
// that reads into a reused buffer and, while the buffer starts with a
// complete and unremarkable
//
//	POST /v1/runs/{id}/next HTTP/1.1
//
// request, answers it through the handler's ServePoll with one Write —
// one Read and one Write per poll, no second goroutine, no header map,
// no context. Anything else is not this package's to answer: the
// connection, with every byte read and not consumed, is handed to an
// ordinary http.Server over the same handler and never comes back, so
// net/http decides every case it would have decided on its own
// listener. The loop is a second transport for one route, chosen from
// the request head; it has no setting.
package pollserve

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Request is one poll as the loop read it. ID is the {id} of the path.
// ContentType and Accept are the values of those headers, nil when
// absent; they and Body alias the connection's buffer and are valid
// until ServePoll returns.
type Request struct {
	ID          string
	ContentType []byte
	Accept      []byte
	Body        []byte
}

// MaxBody caps the request bodies the service and the router read (a
// transfer stream has a cap of its own). The loop hands a poll over it
// to the http.Handler, to refuse as it always has.
const MaxBody = 1 << 20

// Handler is a daemon's handler as the loop needs it: the http.Handler
// every handed-over connection is served by, and the same poll route
// without net/http in the way.
type Handler interface {
	http.Handler
	// ServePoll appends the complete HTTP/1.1 response to one poll — head
	// (AppendHead) and body — to dst and returns it.
	ServePoll(dst []byte, r *Request) []byte
}

// Server serves one listener through the loop.
type Server struct {
	h Handler
	// hs serves what the loop hands over, accepting from handoff.
	hs      *http.Server
	handoff *chanListener

	mu sync.Mutex
	ln net.Listener
	// conns is the connections the loop owns; true marks one that is on
	// its way to net/http and must not be touched.
	conns    map[net.Conn]bool
	closing  bool
	drained  chan struct{} // closed once closing is set and conns is empty
	httpDone chan struct{} // closed when hs.Serve has returned; nil before Serve
}

// New returns a Server over h. Serve starts it.
func New(h Handler) *Server {
	return &Server{
		h:       h,
		hs:      &http.Server{Handler: h},
		handoff: &chanListener{conns: make(chan net.Conn), done: make(chan struct{})},
		conns:   make(map[net.Conn]bool),
		drained: make(chan struct{}),
	}
}

// Serve accepts connections on l until Shutdown, and then returns
// http.ErrServerClosed. A Server serves one listener, once.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closing || s.ln != nil {
		s.mu.Unlock()
		l.Close()
		return http.ErrServerClosed
	}
	s.ln = l
	s.handoff.addr = l.Addr()
	s.httpDone = make(chan struct{})
	s.mu.Unlock()
	go func() {
		defer close(s.httpDone)
		s.hs.Serve(s.handoff) // returns once Shutdown has closed handoff
	}()
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				return http.ErrServerClosed
			}
			// Out of descriptors: wait it out, as net/http does.
			if errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return err
		}
		if s.track(c) {
			go s.loop(c)
		}
	}
}

// track takes ownership of c for the loop; it closes c and reports
// false when the server is shutting down.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		c.Close()
		return false
	}
	s.conns[c] = false
	return true
}

// untrack gives up ownership of c: it is closed, or net/http's now.
func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	if s.closing && len(s.conns) == 0 {
		close(s.drained)
	}
	s.mu.Unlock()
}

// Shutdown stops the server as http.Server.Shutdown does: the listener
// is closed, connections between polls are closed, a poll in flight is
// answered first, and the connections handed over are net/http's to
// shut down. When ctx ends first, what is still open is closed and
// ctx's error returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closing {
		s.closing = true
		if s.ln != nil {
			s.ln.Close()
		}
		if len(s.conns) == 0 {
			close(s.drained)
		}
		// A connection waiting for its next poll is in Read, and a read
		// deadline in the past ends the Read; one that is answering a
		// poll meets the deadline at its next Read.
		for c, leaving := range s.conns {
			if !leaving {
				c.SetReadDeadline(time.Unix(1, 0))
			}
		}
	}
	httpDone := s.httpDone
	s.mu.Unlock()
	select {
	case <-s.drained:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
	}
	err := s.hs.Shutdown(ctx)
	if httpDone != nil {
		<-httpDone
	}
	if err == nil {
		err = ctx.Err()
	}
	return err
}

const (
	// readSize is what a connection's buffer starts at and returns to.
	readSize = 4096
	// keepSize is the largest buffer a connection keeps between polls.
	keepSize = 64 << 10
)

// loop serves one connection until it fails, is handed over or is
// closed by Shutdown. A panic in the handler costs what it costs under
// net/http: a log line and this connection.
func (s *Server) loop(c net.Conn) {
	handed := false
	defer func() {
		if e := recover(); e != nil {
			log.Printf("pollserve: panic serving %v: %v\n%s", c.RemoteAddr(), e, debug.Stack())
		}
		if !handed {
			c.Close()
		}
		s.untrack(c)
	}()
	buf := make([]byte, readSize) // buf[r:w] is read and not consumed
	r, w := 0, 0
	var out []byte
	var req Request
	for {
		h, v := readReqHead(buf[r:w], MaxBody)
		switch v {
		case serve:
			if string(h.id) != req.ID { // the comparison does not allocate; a connection mostly polls one run
				req.ID = string(h.id)
			}
			req.ContentType, req.Accept = h.contentType, h.accept
			req.Body = buf[r+h.body : r+h.end]
			out = s.h.ServePoll(out[:0], &req)
			r += h.end
			if _, err := c.Write(out); err != nil {
				return
			}
			continue
		case handOver:
			s.mu.Lock()
			s.conns[c] = true
			s.mu.Unlock()
			// Shutdown may have set a deadline while the loop owned c.
			c.SetReadDeadline(time.Time{})
			select {
			case s.handoff.conns <- &handedConn{Conn: c, pre: buf[r:w]}:
				handed = true
			case <-s.handoff.done:
			}
			return
		}
		switch {
		case r == w:
			r, w = 0, 0
			if len(buf) > keepSize {
				buf = make([]byte, readSize)
			}
			if cap(out) > keepSize {
				out = nil
			}
		case r > 0:
			w = copy(buf, buf[r:w])
			r = 0
		case w == len(buf):
			buf = append(buf, make([]byte, len(buf))...)
		}
		n, err := c.Read(buf[w:])
		if err != nil {
			return
		}
		w += n
	}
}

// handedConn is a connection on its way to net/http: what the loop had
// read of it comes first.
type handedConn struct {
	net.Conn
	pre []byte
}

func (c *handedConn) Read(p []byte) (int, error) {
	if len(c.pre) > 0 {
		n := copy(p, c.pre)
		c.pre = c.pre[n:]
		return n, nil
	}
	return c.Conn.Read(p)
}

// CloseWrite is what net/http looks for before it closes a connection
// whose request it refused to read to the end.
func (c *handedConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// chanListener is the listener net/http accepts handed-over connections
// from.
type chanListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
	addr  net.Addr
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *chanListener) Addr() net.Addr { return l.addr }

// AppendHead appends the head of a response whose body is length bytes:
// the headers net/http writes for a handler that sets these, in its
// order. contentType and retryAfter are left out when empty.
func AppendHead(dst []byte, status int, contentType, retryAfter string, length int) []byte {
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(status), 10)
	dst = append(dst, ' ')
	if text := http.StatusText(status); text != "" {
		dst = append(dst, text...)
	} else {
		dst = append(dst, "status code "...)
		dst = strconv.AppendInt(dst, int64(status), 10)
	}
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(length), 10)
	if contentType != "" {
		dst = append(dst, "\r\nContent-Type: "...)
		dst = append(dst, contentType...)
	}
	if retryAfter != "" {
		dst = append(dst, "\r\nRetry-After: "...)
		dst = append(dst, retryAfter...)
	}
	dst = append(dst, "\r\nDate: "...)
	dst = appendDate(dst)
	return append(dst, "\r\n\r\n"...)
}

// dateStamp is a Date header value and the second it is right for.
type dateStamp struct {
	sec  int64
	text [len(http.TimeFormat)]byte
}

// date caches the last formatted second: a pure function of the clock,
// shared by every connection of the process.
var date atomic.Pointer[dateStamp]

func appendDate(dst []byte) []byte {
	now := time.Now()
	d := date.Load()
	if d == nil || d.sec != now.Unix() {
		d = &dateStamp{sec: now.Unix()}
		now.UTC().AppendFormat(d.text[:0], http.TimeFormat)
		date.Store(d)
	}
	return append(dst, d.text[:]...)
}
