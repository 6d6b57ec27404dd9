package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"syscall"
	"time"
)

// The generator's HTTP/1.1 client: one keep-alive connection, one
// request in flight, responses framed by Content-Length. It exists so
// that the generator spends less CPU per poll than the server it
// measures; everything off the poll path uses net/http.

// errShortHead is parseHead's "read more" answer.
var errShortHead = errors.New("response head incomplete")

// parseHead parses a response head from the start of buf. It returns
// the status code, the offset of the body and its Content-Length, or
// errShortHead when the blank line has not arrived yet. A response
// without Content-Length is an error: every schedd poll answer carries
// one, directly and through the router.
func parseHead(buf []byte) (status, bodyStart, contentLen int, err error) {
	end := bytes.Index(buf, []byte("\r\n\r\n"))
	if end < 0 {
		return 0, 0, 0, errShortHead
	}
	head := buf[:end]
	// "HTTP/1.1 200 OK"
	if len(head) < 12 || string(head[:7]) != "HTTP/1." || head[8] != ' ' {
		return 0, 0, 0, fmt.Errorf("malformed status line %q", firstLine(head))
	}
	for _, c := range head[9:12] {
		if c < '0' || c > '9' {
			return 0, 0, 0, fmt.Errorf("malformed status line %q", firstLine(head))
		}
		status = status*10 + int(c-'0')
	}
	contentLen = -1
	const name = "content-length:"
	for rest := head; ; {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break
		}
		rest = rest[nl+1:] // the start of the next header line
		if len(rest) < len(name) || !bytes.EqualFold(rest[:len(name)], []byte(name)) {
			continue
		}
		v := rest[len(name):]
		if cr := bytes.IndexByte(v, '\r'); cr >= 0 {
			v = v[:cr]
		}
		n, err := strconv.Atoi(string(bytes.TrimSpace(v)))
		if err != nil || n < 0 {
			return 0, 0, 0, errors.New("malformed Content-Length")
		}
		contentLen = n
	}
	if contentLen < 0 {
		return 0, 0, 0, errors.New("response without Content-Length")
	}
	return status, end + 4, contentLen, nil
}

func firstLine(b []byte) []byte {
	for i, c := range b {
		if c == '\r' || c == '\n' {
			return b[:i]
		}
	}
	return b
}

// pollConn is one keep-alive connection of the generator. It reads and
// writes its socket with blocking system calls on a plain descriptor:
// a round trip is one write(2) and, nearly always, one read(2), with no
// trip through the runtime's poller, which halves what the generator
// costs per poll.
type pollConn struct {
	f    *os.File // keeps fd open
	fd   int
	rbuf []byte // the response read so far is rbuf[:n]
	n    int
	req  []byte
	// bytes sent and received on this connection, heads included
	sent, recv int64
}

func dialPoll(addr string) (*pollConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	// File returns a duplicate in blocking mode; the original closes.
	f, err := c.(*net.TCPConn).File()
	if err != nil {
		return nil, err
	}
	fd := int(f.Fd())
	// A server that stops answering must fail the run, not hang it.
	tv := syscall.Timeval{Sec: 30}
	for _, opt := range []int{syscall.SO_RCVTIMEO, syscall.SO_SNDTIMEO} {
		if err := syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, opt, &tv); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &pollConn{f: f, fd: fd, rbuf: make([]byte, 64<<10)}, nil
}

func (pc *pollConn) close() { pc.f.Close() }

// requestPrefix is everything of a poll request up to the value of
// Content-Length; it is built once per run.
func requestPrefix(path, contentType, accept string) []byte {
	p := "POST " + path + " HTTP/1.1\r\nHost: bench\r\nContent-Type: " + contentType + "\r\n"
	if accept != "" {
		p += "Accept: " + accept + "\r\n"
	}
	return []byte(p + "Content-Length: ")
}

// roundTrip sends prefix + len(body) + body as one write and reads one
// response. The returned body aliases the connection's buffer and is
// valid until the next call.
func (pc *pollConn) roundTrip(prefix, body []byte) (status int, respBody []byte, err error) {
	req := append(pc.req[:0], prefix...)
	req = strconv.AppendInt(req, int64(len(body)), 10)
	req = append(req, "\r\n\r\n"...)
	req = append(req, body...)
	pc.req = req
	for off := 0; off < len(req); {
		k, err := syscall.Write(pc.fd, req[off:])
		if err != nil {
			if err == syscall.EINTR {
				continue
			}
			return 0, nil, fmt.Errorf("write: %w", err)
		}
		off += k
	}
	pc.sent += int64(len(req))
	pc.n = 0
	bodyStart, contentLen := 0, 0
	for {
		status, bodyStart, contentLen, err = parseHead(pc.rbuf[:pc.n])
		if err == nil {
			break
		}
		if err != errShortHead {
			return 0, nil, err
		}
		if err := pc.fill(); err != nil {
			return 0, nil, err
		}
	}
	for pc.n < bodyStart+contentLen {
		if err := pc.fill(); err != nil {
			return 0, nil, err
		}
	}
	if pc.n != bodyStart+contentLen {
		return 0, nil, fmt.Errorf("%d bytes after the response body", pc.n-bodyStart-contentLen)
	}
	pc.recv += int64(pc.n)
	return status, pc.rbuf[bodyStart:pc.n], nil
}

func (pc *pollConn) fill() error {
	if pc.n == len(pc.rbuf) {
		pc.rbuf = append(pc.rbuf, make([]byte, len(pc.rbuf))...)
	}
	for {
		k, err := syscall.Read(pc.fd, pc.rbuf[pc.n:])
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return fmt.Errorf("read: %w", err)
		case k == 0:
			return io.ErrUnexpectedEOF
		}
		pc.n += k
		return nil
	}
}
