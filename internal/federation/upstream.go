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
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetsched/internal/pollserve"
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
	// maxPollAnswer bounds the body of a poll answer relayed through the
	// request loop, which is held whole; the largest batch a run may ask
	// for answers in a few tens of kilobytes.
	maxPollAnswer = 1 << 20
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

const contentTypeIdx, contentLengthIdx, retryAfterIdx = 0, 1, 4

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

	mu sync.Mutex
	// idle and cold are the pooled connections, most recently used last:
	// idle those that have carried only polls, cold the rest. A host's
	// request loop hands a connection to net/http for good at its first
	// request that is not a poll, so the other requests keep to
	// connections of their own and no poll pays for net/http.
	idle, cold []*upConn

	// failures counts the requests the hop gave up on (a refused dial, a
	// lost connection, an answer not understood); the router answers
	// each with its 503.
	dials, reuses, stale, failures atomic.Uint64
}

// upConn is one keep-alive connection, used by one request at a time.
type upConn struct {
	c    net.Conn
	br   *bufio.Reader
	cold bool // pooled in upstream.cold
	// probe is the idle check on the socket under c (probe_*.go).
	probe idleProbe
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
// the most recently used one of the pool the request's class takes that
// is still open, else a new one.
func (up *upstream) get(cold bool) (*upConn, error) {
	deadline := time.Now().Add(headerBudget)
	pool := up.pool(cold)
	for {
		up.mu.Lock()
		n := len(*pool)
		if n == 0 {
			up.mu.Unlock()
			break
		}
		uc := (*pool)[n-1]
		*pool = (*pool)[:n-1]
		up.mu.Unlock()
		if uc.alive() && uc.c.SetDeadline(deadline) == nil {
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
	uc := &upConn{c: c, br: bufio.NewReader(c), cold: cold}
	uc.probe.init(raw)
	return uc, nil
}

// pool is the idle list of a class of requests: cold for anything but
// a poll.
func (up *upstream) pool(cold bool) *[]*upConn {
	if cold {
		return &up.cold
	}
	return &up.idle
}

// alive reports whether an idle connection is still open and silent: a
// read that does not block must find nothing to read. End of file is
// the peer having closed it (a restart, an idle timeout), and a byte
// nobody asked for leaves the stream unusable; it is lost to the read,
// which is harmless because the connection is closed on either.
func (uc *upConn) alive() bool {
	return uc.br.Buffered() == 0 && uc.probe.quiet()
}

// quietWithin is the portable idle check, for a platform without a
// read that does not block (probe_other.go): a read that gives up after
// wait must find nothing. It leaves c without a read deadline.
func quietWithin(c net.Conn, wait time.Duration) bool {
	if c.SetReadDeadline(time.Now().Add(wait)) != nil {
		return false
	}
	var b [1]byte
	n, err := c.Read(b[:])
	return n == 0 && errors.Is(err, os.ErrDeadlineExceeded) && c.SetReadDeadline(time.Time{}) == nil
}

// put returns a connection whose response was read to its end.
func (up *upstream) put(uc *upConn) {
	pool := up.pool(uc.cold)
	up.mu.Lock()
	if len(*pool) < maxIdleConns {
		*pool = append(*pool, uc)
		uc = nil
	}
	up.mu.Unlock()
	if uc != nil {
		uc.c.Close()
	}
}

// release returns uc to the pool when its response was read to its end
// and the peer keeps it open, and closes it otherwise.
func (up *upstream) release(uc *upConn, reusable bool) {
	if reusable {
		up.put(uc)
	} else {
		uc.c.Close()
	}
}

// appendRequest appends one request to the target to dst: the request
// line over the pieces of uri, Host, those of proxyHeaders that hdr has
// a value for, Content-Length where the method or a body calls for one,
// and the body. net/http hands its header values over as strings, the
// request loop as bytes of its buffer.
func appendRequest[S ~string | ~[]byte](dst []byte, up *upstream, method string, hdr *[len(proxyHeaders)]S, body []byte, uri ...string) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, up.prefix...)
	for _, piece := range uri {
		dst = append(dst, piece...)
	}
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, up.host...)
	for i, name := range proxyHeaders {
		if len(hdr[i]) > 0 {
			dst = append(dst, "\r\n"...)
			dst = append(dst, name...)
			dst = append(dst, ": "...)
			dst = append(dst, hdr[i]...)
		}
	}
	if len(body) > 0 || (method != http.MethodGet && method != http.MethodHead) {
		dst = append(dst, "\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
	}
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

// exchange is the hop itself: req leaves in one Write on a connection
// of the pool, and the response head is read. A body that fits the
// reader is taken whole as well — short is set and b is the body, still
// in uc's reader — so that a peer that dies mid-response costs a clean
// 503. On an error the connection is already closed; the target could
// not be reached or did not answer in HTTP, and the request may have
// been executed there. Otherwise the caller releases uc.
func (up *upstream) exchange(req []byte, method string, cold bool) (uc *upConn, h respHead, b []byte, short bool, err error) {
	if uc, err = up.get(cold); err != nil {
		up.failures.Add(1)
		return nil, h, nil, false, err
	}
	if _, err = uc.c.Write(req); err == nil {
		h, err = readRespHead(uc.br)
	}
	if err == nil {
		if method == http.MethodHead || h.status == http.StatusNoContent || h.status == http.StatusNotModified {
			h.chunked, h.length = false, 0
		}
		if short = !h.chunked && h.length >= 0 && h.length <= int64(uc.br.Size()); short {
			b, err = uc.br.Peek(int(h.length))
		}
	}
	if err != nil {
		uc.c.Close()
		up.failures.Add(1)
		return nil, h, nil, false, err
	}
	return uc, h, b, short, nil
}

// forward sends r to the target and its answer to w. A non-nil error
// means nothing has been written to w: errBodyTooLarge and
// errClientBody before anything was sent upstream, anything else is
// exchange's. Once the response head is on its way to the client a
// failure can only cut the body short.
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
	var hdr [len(proxyHeaders)]string
	for i, name := range proxyHeaders {
		if v := r.Header[name]; len(v) > 0 {
			hdr[i] = v[0]
		}
	}
	req := appendRequest(sc.req[:0], up, r.Method, &hdr, sc.body, r.URL.RequestURI())
	sc.req = req

	uc, h, b, short, err := up.exchange(req, r.Method, !isPoll(r))
	if err != nil {
		return err
	}
	reusable := false
	defer func() { up.release(uc, reusable) }()
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

// poll is forward for a poll the request loop read off its socket: the
// same request on the wire, the same exchange, and the answer appended
// to dst as the response the loop sends. A schedd host frames every poll
// answer with Content-Length, on either of its transports; an answer
// that is not, or is longer than maxPollAnswer, is an error like any
// other after the write. On an error dst is returned as it came.
func (up *upstream) poll(dst []byte, r *pollserve.Request) ([]byte, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	hdr := [len(proxyHeaders)][]byte{contentTypeIdx: r.ContentType, acceptIdx: r.Accept}
	sc.req = appendRequest(sc.req[:0], up, http.MethodPost, &hdr, r.Body, "/v1/runs/", r.ID, "/next")
	uc, h, b, short, err := up.exchange(sc.req, http.MethodPost, false)
	if err != nil {
		return dst, err
	}
	if h.chunked || h.length < 0 || h.length > maxPollAnswer {
		uc.c.Close()
		up.failures.Add(1)
		return dst, errBadHead
	}
	out := pollserve.AppendHead(dst, h.status, h.fwd[contentTypeIdx], h.fwd[retryAfterIdx], int(h.length))
	if short {
		out = append(out, b...)
		uc.br.Discard(len(b))
	} else {
		n := len(out)
		out = slices.Grow(out, int(h.length))[:n+int(h.length)]
		if _, err := io.ReadFull(uc.br, out[n:]); err != nil {
			uc.c.Close()
			up.failures.Add(1)
			return dst, err
		}
	}
	up.release(uc, !h.close)
	return out, nil
}

// isPoll reports whether r is a poll, POST /v1/runs/{id}/next: a
// request a host's loop answers itself.
func isPoll(r *http.Request) bool {
	id, run := strings.CutPrefix(r.URL.Path, "/v1/runs/")
	id, next := strings.CutSuffix(id, "/next")
	return r.Method == http.MethodPost && run && next && id != "" && !strings.Contains(id, "/")
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
