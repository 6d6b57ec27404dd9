package federation

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// This file is the router's upstream hop: the HTTP/1.1 client every
// request forwarded to a URL target goes through. One poll is one
// Write on a pooled keep-alive connection and, nearly always, one Read,
// both on the handler's own goroutine. A request is never written
// twice — polls are not idempotent — so any failure after the write
// closes the connection and answers 503; what makes that rare is that
// a connection the peer closed while it sat idle is found before the
// write, not by it.

const (
	// maxIdleConns bounds the keep-alive connections pooled per target.
	maxIdleConns = 64
	// headerBudget bounds dialing and, per request, the write plus the
	// wait for the response head. Streamed bodies run without a deadline.
	headerBudget = 10 * time.Second
	// maxHeadBytes bounds a response head; one header line is bounded by
	// the connection's reader.
	maxHeadBytes = 16 << 10
)

var (
	errBodyTooLarge = errors.New("request body too large")
	// errClientBody wraps a failure to read the body from the router's
	// own client.
	errClientBody = errors.New("reading request body")
	errBadHead    = errors.New("malformed response head")
)

// respHeaders are the response headers the hop forwards.
var respHeaders = [...]string{"Content-Type", "Content-Length", "Cache-Control", "X-Accel-Buffering", "Retry-After"}

const contentTypeIdx, contentLengthIdx = 0, 1

// scratch is what one forwarded request is built in: the client's body,
// then the whole upstream request; req doubles as the copy buffer of a
// streamed response. It is pooled apart from the connections so that
// the request is complete, however slowly its body came, before a
// connection is checked and its deadline set. (sync.Pool lets go of
// what a rare large body grew within two garbage collections.)
type scratch struct{ body, req []byte }

var scratchPool = sync.Pool{New: func() any {
	return &scratch{body: make([]byte, 0, 512), req: make([]byte, 0, 4096)}
}}

// upstream is the pool of connections to one URL target and the
// counters GET /v1/ring reports for it.
type upstream struct {
	addr   string // host:port to dial
	host   string // Host header
	prefix string // path of the target's base URL, "" for most
	// tls is set for an https target: crypto/tls defaults, the server
	// name from the URL.
	tls *tls.Config
	// dial is the seam tests count writes through.
	dial func(network, addr string) (net.Conn, error)

	mu   sync.Mutex
	idle []*upConn // most recently used last

	dials, reuses, stale, failures atomic.Uint64
}

// upConn is one keep-alive connection, used by one request at a time.
type upConn struct {
	c  net.Conn
	br *bufio.Reader
	// rc is the descriptor the idle check reads; probe and quiet are
	// its callback and result, kept here so that a check allocates
	// nothing.
	rc    syscall.RawConn
	probe func(fd uintptr) bool
	quiet bool
}

func newUpstream(base string) (*upstream, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" || u.RawQuery != "" {
		return nil, fmt.Errorf("want http(s)://host[:port][/prefix], have %q", base)
	}
	up := &upstream{host: u.Host, addr: u.Host, prefix: strings.TrimRight(u.EscapedPath(), "/")}
	port := "80"
	if u.Scheme == "https" {
		up.tls, port = &tls.Config{ServerName: u.Hostname()}, "443"
	}
	if u.Port() == "" {
		up.addr = net.JoinHostPort(u.Hostname(), port)
	}
	up.dial = (&net.Dialer{Timeout: headerBudget}).Dial
	return up, nil
}

// get returns a connection to send one request on, its deadline set:
// the most recently used idle one that is still open, else a new one.
func (up *upstream) get() (*upConn, error) {
	deadline := time.Now().Add(headerBudget)
	for {
		up.mu.Lock()
		n := len(up.idle)
		if n == 0 {
			up.mu.Unlock()
			break
		}
		uc := up.idle[n-1]
		up.idle = up.idle[:n-1]
		up.mu.Unlock()
		if uc.c.SetDeadline(deadline) == nil && uc.alive() {
			up.reuses.Add(1)
			return uc, nil
		}
		up.stale.Add(1)
		uc.c.Close()
	}
	c, err := up.dial("tcp", up.addr)
	if err != nil {
		return nil, err
	}
	if err := c.SetDeadline(deadline); err != nil {
		c.Close()
		return nil, err
	}
	raw := c
	if up.tls != nil {
		tc := tls.Client(c, up.tls)
		if err := tc.Handshake(); err != nil {
			c.Close()
			return nil, err
		}
		c = tc
	}
	up.dials.Add(1)
	uc := &upConn{c: c, br: bufio.NewReader(c)}
	if sc, ok := raw.(syscall.Conn); ok {
		uc.rc, _ = sc.SyscallConn()
	}
	uc.probe = func(fd uintptr) bool {
		var b [1]byte
		n, err := syscall.Read(int(fd), b[:])
		uc.quiet = n < 0 && (err == syscall.EAGAIN || err == syscall.EWOULDBLOCK)
		return true // never wait for readiness
	}
	return uc, nil
}

// alive reports whether an idle connection is still open and silent: a
// read that does not block must find nothing to read. End of file is
// the peer having closed it (a restart, an idle timeout), and a byte
// nobody asked for leaves the stream unusable; it is lost to the read,
// which is harmless because the connection is closed on either. A
// connection without a descriptor cannot be checked and is not reused.
func (uc *upConn) alive() bool {
	if uc.rc == nil || uc.br.Buffered() > 0 {
		return false
	}
	uc.quiet = false
	return uc.rc.Read(uc.probe) == nil && uc.quiet
}

// put returns a connection whose response was read to its end.
func (up *upstream) put(uc *upConn) {
	up.mu.Lock()
	if len(up.idle) < maxIdleConns {
		up.idle = append(up.idle, uc)
		uc = nil
	}
	up.mu.Unlock()
	if uc != nil {
		uc.c.Close()
	}
}

// forward sends r to the target and its answer to w. A non-nil error
// means nothing has been written to w: errBodyTooLarge and
// errClientBody before anything was sent upstream, anything else for
// a target that could not be reached or did not answer in HTTP — the
// request may have been executed there. Once the response head is on
// its way to the client a failure can only cut the body short.
func (up *upstream) forward(w http.ResponseWriter, r *http.Request, maxBody int64) error {
	if r.ContentLength > maxBody {
		return errBodyTooLarge
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	var err error
	if sc.body, err = readCapped(sc.body[:0], r.Body, maxBody); err != nil {
		return err
	}
	req := append(sc.req[:0], r.Method...)
	req = append(req, ' ')
	req = append(req, up.prefix...)
	req = append(req, r.URL.RequestURI()...)
	req = append(req, " HTTP/1.1\r\nHost: "...)
	req = append(req, up.host...)
	for _, h := range proxyHeaders {
		if v := r.Header[h]; len(v) > 0 && v[0] != "" {
			req = append(req, "\r\n"...)
			req = append(req, h...)
			req = append(req, ": "...)
			req = append(req, v[0]...)
		}
	}
	if len(sc.body) > 0 || (r.Method != http.MethodGet && r.Method != http.MethodHead) {
		req = append(req, "\r\nContent-Length: "...)
		req = strconv.AppendInt(req, int64(len(sc.body)), 10)
	}
	req = append(req, "\r\n\r\n"...)
	req = append(req, sc.body...)
	sc.req = req

	uc, err := up.get()
	if err != nil {
		return err
	}
	reusable := false
	defer func() {
		if reusable {
			up.put(uc)
		} else {
			uc.c.Close()
		}
	}()
	if _, err := uc.c.Write(req); err != nil {
		return err
	}
	h, err := readRespHead(uc.br)
	if err != nil {
		return err
	}
	if r.Method == http.MethodHead || h.status == http.StatusNoContent || h.status == http.StatusNotModified {
		h.chunked, h.length = false, 0
	}
	// A body that fits the reader is taken whole before the client is
	// answered, so that a peer that dies mid-response still costs a
	// clean 503, and handed over without a copy.
	short := !h.chunked && h.length >= 0 && h.length <= int64(uc.br.Size())
	var b []byte
	if short {
		if b, err = uc.br.Peek(int(h.length)); err != nil {
			return err
		}
	}
	for i, name := range respHeaders {
		if h.fwd[i] != "" {
			w.Header().Set(name, h.fwd[i])
		}
	}
	w.WriteHeader(h.status)
	if short {
		w.Write(b) // a client that has gone takes nothing from the peer's answer
		uc.br.Discard(len(b))
		reusable = !h.close
		return nil
	}

	// A long or unbounded body, an event stream among them: copy it as
	// it arrives, for as long as it takes and the client stays.
	uc.c.SetDeadline(time.Time{})
	stop := context.AfterFunc(r.Context(), func() { uc.c.Close() })
	var body io.Reader = uc.br
	var limited *io.LimitedReader
	switch {
	case h.chunked:
		body = httputil.NewChunkedReader(uc.br)
	case h.length >= 0:
		limited = &io.LimitedReader{R: uc.br, N: h.length}
		body = limited
	}
	flush := strings.HasPrefix(h.fwd[contentTypeIdx], "text/event-stream")
	err = copyFlush(w, body, req[:cap(req)], flush)
	switch {
	case err != io.EOF: // cut short, or the client left
	case h.chunked:
		reusable = skipTrailer(uc.br) == nil
	case h.length >= 0:
		reusable = limited.N == 0
	}
	// stop answers false when the client has gone and the close is
	// running or has run.
	reusable = stop() && reusable && !h.close
	return nil
}

// readCapped appends all of r to dst, or fails with errBodyTooLarge
// once more than max bytes have come.
func readCapped(dst []byte, r io.Reader, max int64) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		switch {
		case int64(len(dst)) > max:
			return dst, errBodyTooLarge
		case err == io.EOF:
			return dst, nil
		case err != nil:
			return dst, fmt.Errorf("%w: %v", errClientBody, err)
		}
	}
}

// copyFlush copies src to w through buf until src fails, io.EOF being
// the body's framed end, or w does; with flush set every piece is
// pushed to the client as it arrives.
func copyFlush(w http.ResponseWriter, src io.Reader, buf []byte, flush bool) error {
	fl, _ := w.(http.Flusher)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return werr
			}
			if flush && fl != nil {
				fl.Flush()
			}
		}
		if rerr != nil {
			return rerr
		}
	}
}

// skipTrailer consumes what follows the last chunk of a chunked body:
// trailer fields, which are dropped, and the blank line.
func skipTrailer(br *bufio.Reader) error {
	for total := 0; total <= maxHeadBytes; {
		line, err := readLine(br)
		if err != nil {
			return err
		}
		if len(line) == 0 {
			return nil
		}
		total += len(line)
	}
	return errBadHead
}

// respHead is a parsed response head.
type respHead struct {
	status  int
	length  int64 // Content-Length; -1 when absent or overridden by chunked
	chunked bool
	close   bool // the peer closes the connection after this response
	fwd     [len(respHeaders)]string
}

// readRespHead reads one response head from br and nothing after it.
// It is total: whatever the bytes, it returns a head or an error.
// Interim (1xx) responses are errors, since no forwarded request asks
// for one.
func readRespHead(br *bufio.Reader) (h respHead, err error) {
	line, err := readLine(br)
	if err != nil {
		return h, err
	}
	// "HTTP/1.1 200 OK", the reason phrase optional.
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || (line[7] != '0' && line[7] != '1') ||
		line[8] != ' ' || (len(line) > 12 && line[12] != ' ') {
		return h, errBadHead
	}
	for _, c := range line[9:12] {
		if c < '0' || c > '9' {
			return h, errBadHead
		}
		h.status = h.status*10 + int(c-'0')
	}
	if h.status < 200 {
		return h, errBadHead
	}
	http10 := line[7] == '0'
	h.length = -1
	sawClose, sawKeepAlive := false, false
	for total := len(line); ; {
		if line, err = readLine(br); err != nil {
			return h, err
		}
		if len(line) == 0 {
			break
		}
		if total += len(line); total > maxHeadBytes {
			return h, errBadHead
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || line[0] == ' ' || line[0] == '\t' {
			return h, errBadHead
		}
		name, val := line[:colon], bytes.Trim(line[colon+1:], " \t")
		switch {
		case equalFold(name, "Content-Length"):
			n, perr := strconv.ParseUint(string(val), 10, 63)
			if perr != nil || (h.length >= 0 && h.length != int64(n)) {
				return h, errBadHead
			}
			h.length = int64(n)
		case equalFold(name, "Transfer-Encoding"):
			if !equalFold(val, "chunked") {
				return h, errBadHead
			}
			h.chunked = true
		case equalFold(name, "Connection"):
			for _, tok := range strings.Split(string(val), ",") {
				tok = strings.TrimSpace(tok)
				sawClose = sawClose || strings.EqualFold(tok, "close")
				sawKeepAlive = sawKeepAlive || strings.EqualFold(tok, "keep-alive")
			}
		}
		for i, want := range respHeaders {
			if equalFold(name, want) {
				h.fwd[i] = string(val)
			}
		}
	}
	if h.chunked { // chunked framing overrides a declared length
		h.length, h.fwd[contentLengthIdx] = -1, ""
	}
	h.close = sawClose || (http10 && !sawKeepAlive)
	return h, nil
}

// readLine reads one line and strips its end. A line longer than the
// reader is bufio.ErrBufferFull.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// equalFold reports whether b is want under case folding.
func equalFold(b []byte, want string) bool {
	return len(b) == len(want) && strings.EqualFold(string(b), want)
}
