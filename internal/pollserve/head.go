package pollserve

import (
	"bytes"
	"strings"
)

// maxHead bounds the head of a request the loop answers.
const maxHead = 16 << 10

// verdict is what readReqHead makes of a buffer.
type verdict int

const (
	// serve: the buffer starts with a whole poll, head and body.
	serve verdict = iota
	// more: it may yet come to one; read on.
	more
	// handOver: this request is net/http's.
	handOver
)

// reqHead is a poll request found at the start of a buffer. The slices
// alias the buffer; the body is buf[body:end] and the next request
// starts at end.
type reqHead struct {
	id, contentType, accept []byte
	body, end               int
}

const (
	linePrefix = "POST /v1/runs/"
	lineSuffix = "/next HTTP/1.1\r\n"
)

// readReqHead decides what the bytes read and not yet consumed on a
// connection start with. It is total, the twin of the router's
// readRespHead on the other side of a poll, and it answers serve only
// for a request it is certain net/http would hand to the poll route
// with the same id, body and Content-Type and Accept values: the request
// line to the letter, an id of letters, digits, '.', '_' and '-', every
// header line well-formed, exactly one Host, exactly one Content-Length
// of at most maxBody, at most one Content-Type and one Accept, and none
// of the headers that change how a message is framed or answered.
func readReqHead(buf []byte, maxBody int64) (h reqHead, v verdict) {
	switch n := matchSoFar(buf, linePrefix); {
	case n < 0:
		return h, handOver
	case n < len(linePrefix):
		return h, more
	}
	pos := len(linePrefix)
	for pos < len(buf) && idByte[buf[pos]] {
		pos++
	}
	if pos == len(buf) {
		return h, moreWithin(len(buf))
	}
	h.id = buf[len(linePrefix):pos]
	// "." and ".." are path segments net/http's mux redirects away.
	if len(h.id) == 0 || string(h.id) == "." || string(h.id) == ".." {
		return h, handOver
	}
	switch n := matchSoFar(buf[pos:], lineSuffix); {
	case n < 0:
		return h, handOver
	case n < len(lineSuffix):
		return h, moreWithin(len(buf))
	}
	pos += len(lineSuffix)

	length := int64(-1)
	var hosts, contentTypes, accepts int
	for {
		nl := bytes.IndexByte(buf[pos:], '\n')
		if nl < 0 {
			return h, moreWithin(len(buf))
		}
		line := buf[pos : pos+nl]
		pos += nl + 1
		if pos > maxHead || len(line) == 0 || line[len(line)-1] != '\r' {
			return h, handOver
		}
		line = line[:len(line)-1]
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return h, handOver
		}
		name, val := line[:colon], bytes.Trim(line[colon+1:], " \t")
		for _, c := range name {
			if !tokenByte[c] {
				return h, handOver
			}
		}
		for _, c := range val {
			if c < ' ' && c != '\t' || c == 0x7f {
				return h, handOver
			}
		}
		switch {
		case equalFold(name, "Content-Length"):
			if length >= 0 || len(val) == 0 || len(val) > 18 {
				return h, handOver
			}
			length = 0
			for _, c := range val {
				if c < '0' || c > '9' {
					return h, handOver
				}
				length = length*10 + int64(c-'0')
			}
			if length > maxBody {
				return h, handOver
			}
		case equalFold(name, "Host"):
			if hosts++; hosts > 1 || len(val) == 0 {
				return h, handOver
			}
			for _, c := range val {
				if !hostByte[c] {
					return h, handOver
				}
			}
		case equalFold(name, "Content-Type"):
			if contentTypes++; contentTypes > 1 {
				return h, handOver
			}
			h.contentType = val
		case equalFold(name, "Accept"):
			if accepts++; accepts > 1 {
				return h, handOver
			}
			h.accept = val
		case equalFold(name, "Connection"):
			if !equalFold(val, "keep-alive") {
				return h, handOver
			}
		case equalFold(name, "Transfer-Encoding"), equalFold(name, "Expect"),
			equalFold(name, "Upgrade"), equalFold(name, "Trailer"):
			return h, handOver
		}
	}
	if length < 0 || hosts != 1 {
		return h, handOver
	}
	h.body, h.end = pos, pos+int(length)
	if len(buf) < h.end {
		return h, more
	}
	return h, serve
}

// matchSoFar compares buf with want as far as buf goes: the number of
// bytes of want matched, len(want) when buf starts with all of it, or -1
// at the first difference.
func matchSoFar(buf []byte, want string) int {
	n := min(len(buf), len(want))
	if string(buf[:n]) != want[:n] {
		return -1
	}
	return n
}

// moreWithin is the verdict on a head that is still incomplete after n
// bytes.
func moreWithin(n int) verdict {
	if n >= maxHead {
		return handOver
	}
	return more
}

// equalFold reports whether b is want, which is ASCII, under case
// folding. No fold of a non-ASCII rune is as short as the letter it
// folds to, so equal lengths keep the comparison to ASCII.
func equalFold(b []byte, want string) bool {
	return len(b) == len(want) && strings.EqualFold(string(b), want)
}

// idByte, tokenByte and hostByte are the bytes of a run id, of a header
// name (RFC 9110's tchar) and of a Host value the loop accepts.
var idByte, tokenByte, hostByte = byteSet("._-"), byteSet("!#$%&'*+-.^_`|~"), byteSet(".-_:[]")

// byteSet is the letters, the digits and the bytes of extra.
func byteSet(extra string) (set [256]bool) {
	for c := '0'; c <= '9'; c++ {
		set[c] = true
	}
	for c := 'a'; c <= 'z'; c++ {
		set[c], set[c-'a'+'A'] = true, true
	}
	for i := 0; i < len(extra); i++ {
		set[extra[i]] = true
	}
	return set
}
