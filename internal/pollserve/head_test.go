package pollserve

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
)

// poll is a request the loop answers: the benchmark generator's head.
const pollHead = "POST /v1/runs/r-1/next HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: 12\r\n\r\n"
const pollBody = `{"worker":0}`

func TestReadReqHead(t *testing.T) {
	const maxBody = 64
	line := "POST /v1/runs/r-1/next HTTP/1.1\r\n"
	host := "Host: a.example:8080\r\n"
	cases := []struct {
		name string
		raw  string
		want verdict
		// of a served request:
		id, contentType, accept, body string
	}{
		{name: "the generator's poll", raw: pollHead + pollBody, want: serve,
			id: "r-1", contentType: "application/json", body: pollBody},
		{name: "what follows is the next request's", raw: pollHead + pollBody + "POST /v1/ru", want: serve,
			id: "r-1", contentType: "application/json", body: pollBody},
		{name: "http.Client's poll", want: serve, id: "R_2.x", accept: "application/x-schedd-frame", body: "{}",
			raw: "POST /v1/runs/R_2.x/next HTTP/1.1\r\nHost: 127.0.0.1:4000\r\nUser-Agent: Go-http-client/1.1\r\n" +
				"Content-Length: 2\r\nAccept: application/x-schedd-frame\r\nAccept-Encoding: gzip\r\n\r\n{}"},
		{name: "names fold, values are trimmed, keep-alive is no news", want: serve, id: "r-1", contentType: "a/b", body: "",
			raw: line + "hOsT:h\r\nCONTENT-TYPE: \t a/b \r\ncontent-length:0\r\nConnection: Keep-Alive\r\n\r\n"},
		{name: "an empty Content-Type is one Content-Type", want: serve, id: "r-1", body: "x",
			raw: line + host + "Content-Type:\r\nContent-Length: 1\r\n\r\nx"},
		{name: "leading zeros", want: serve, id: "r-1", body: "x",
			raw: line + host + "Content-Length: 001\r\n\r\nx"},
		{name: "a body of exactly the limit", want: serve, id: "r-1", body: strings.Repeat("b", maxBody),
			raw: line + host + "Content-Length: 64\r\n\r\n" + strings.Repeat("b", maxBody)},

		{name: "nothing yet", raw: "", want: more},
		{name: "half a method", raw: "PO", want: more},
		{name: "half an id", raw: "POST /v1/runs/r-", want: more},
		{name: "half a version", raw: "POST /v1/runs/r-1/next HT", want: more},
		{name: "half a header line", raw: line + "Host: be", want: more},
		{name: "no blank line yet", raw: line + host + "Content-Length: 2\r\n", want: more},
		{name: "half a body", raw: pollHead + pollBody[:5], want: more},

		{name: "another method", raw: "GET /v1/runs/r-1/next HTTP/1.1\r\n", want: handOver},
		{name: "another method, one byte in", raw: "G", want: handOver},
		{name: "another route", raw: "POST /v1/runs/r-1/migrate HTTP/1.1\r\n" + host + "Content-Length: 0\r\n\r\n", want: handOver},
		{name: "run creation", raw: "POST /v1/runs HTTP/1.1\r\n", want: handOver},
		{name: "a query", raw: "POST /v1/runs/r-1/next?x=1 HTTP/1.1\r\n", want: handOver},
		{name: "an escape in the id", raw: "POST /v1/runs/r%2D1/next HTTP/1.1\r\n", want: handOver},
		{name: "no id", raw: "POST /v1/runs//next HTTP/1.1\r\n", want: handOver},
		{name: "a dot segment", raw: "POST /v1/runs/../next HTTP/1.1\r\n", want: handOver},
		{name: "HTTP/1.0", raw: "POST /v1/runs/r-1/next HTTP/1.0\r\n" + host + "Content-Length: 0\r\n\r\n", want: handOver},
		{name: "a bare newline", raw: "POST /v1/runs/r-1/next HTTP/1.1\n" + host + "Content-Length: 0\r\n\r\n", want: handOver},
		{name: "a bare newline ends a header", raw: line + "Host: h\nContent-Length: 0\r\n\r\n", want: handOver},
		{name: "a folded header", raw: line + host + "X-A: 1\r\n 2\r\nContent-Length: 0\r\n\r\n", want: handOver},
		{name: "a space before the colon", raw: line + host + "Content-Length : 0\r\n\r\n", want: handOver},
		{name: "a header without a colon", raw: line + host + "Content-Length 0\r\n\r\n", want: handOver},
		{name: "a control byte in a value", raw: line + host + "X-A: a\x00b\r\nContent-Length: 0\r\n\r\n", want: handOver},
		{name: "chunked", raw: line + host + "Transfer-Encoding: chunked\r\n\r\n", want: handOver},
		{name: "chunked beside a length", raw: line + host + "Content-Length: 0\r\nTransfer-Encoding: chunked\r\n\r\n", want: handOver},
		{name: "Expect", raw: line + host + "Content-Length: 2\r\nExpect: 100-continue\r\n\r\n", want: handOver},
		{name: "Upgrade", raw: line + host + "Content-Length: 0\r\nUpgrade: h2c\r\n\r\n", want: handOver},
		{name: "Trailer", raw: line + host + "Content-Length: 0\r\nTrailer: X\r\n\r\n", want: handOver},
		{name: "Connection: close", raw: line + host + "Content-Length: 0\r\nConnection: close\r\n\r\n", want: handOver},
		{name: "Connection: a list", raw: line + host + "Content-Length: 0\r\nConnection: keep-alive, x\r\n\r\n", want: handOver},
		{name: "no Content-Length", raw: line + host + "\r\n", want: handOver},
		{name: "two Content-Lengths, equal", raw: line + host + "Content-Length: 1\r\nContent-Length: 1\r\n\r\nx", want: handOver},
		{name: "a signed Content-Length", raw: line + host + "Content-Length: +1\r\n\r\nx", want: handOver},
		{name: "an empty Content-Length", raw: line + host + "Content-Length:\r\n\r\n", want: handOver},
		{name: "a Content-Length past int64", raw: line + host + "Content-Length: 99999999999999999999\r\n\r\n", want: handOver},
		{name: "a body over the limit", raw: line + host + "Content-Length: 65\r\n\r\n", want: handOver},
		{name: "no Host", raw: line + "Content-Length: 0\r\n\r\n", want: handOver},
		{name: "two Hosts", raw: line + host + host + "Content-Length: 0\r\n\r\n", want: handOver},
		{name: "a Host with a path", raw: line + "Host: a/b\r\nContent-Length: 0\r\n\r\n", want: handOver},
		{name: "two Content-Types", raw: line + host + "Content-Type: a\r\nContent-Type: a\r\nContent-Length: 0\r\n\r\n", want: handOver},
		{name: "two Accepts, the first empty", raw: line + host + "Accept:\r\nAccept: a\r\nContent-Length: 0\r\n\r\n", want: handOver},
		{name: "a head over 16 KiB", raw: line + host + "X-Pad: " + strings.Repeat("p", maxHead) + "\r\nContent-Length: 0\r\n\r\n", want: handOver},
		{name: "16 KiB and no end of line", raw: line + host + "X-Pad: " + strings.Repeat("p", maxHead), want: handOver},
		{name: "16 KiB of id", raw: "POST /v1/runs/" + strings.Repeat("i", maxHead), want: handOver},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h, v := readReqHead([]byte(c.raw), maxBody)
			if v != c.want {
				t.Fatalf("verdict %d, want %d", v, c.want)
			}
			if v != serve {
				return
			}
			if string(h.id) != c.id || string(h.contentType) != c.contentType || string(h.accept) != c.accept ||
				c.raw[h.body:h.end] != c.body {
				t.Errorf("id %q Content-Type %q Accept %q body %q, want %q %q %q %q",
					h.id, h.contentType, h.accept, c.raw[h.body:h.end], c.id, c.contentType, c.accept, c.body)
			}
		})
	}
}

// FuzzPollRequestHead: whatever the bytes, readReqHead returns; a request
// it serves ends inside the buffer, at the head's end plus the declared
// Content-Length; and net/http reads the same request off the same bytes
// — the method and path of the poll route, that length, that body, those
// Content-Type and Accept values, and nothing that would have made it
// answer or frame the exchange differently.
func FuzzPollRequestHead(f *testing.F) {
	f.Add([]byte(pollHead + pollBody))
	f.Add([]byte(pollHead + pollBody + pollHead + pollBody))
	f.Add([]byte("POST /v1/runs/a.b_c-9/next HTTP/1.1\r\nhost: [::1]:80\r\nAccept: application/x-schedd-frame\r\nConnection: keep-alive\r\nContent-Length: 003\r\n\r\nabcd"))
	f.Add([]byte("POST /v1/runs/r/next HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\n"))
	f.Add([]byte("POST /v1/runs/r/next HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"))
	f.Add([]byte("POST /v1/runs/r/next HTTP/1.1\r\nHost: h\r\nContent-Type:\r\nX: \x7f\r\nContent-Length: 0\r\n\r\n"))
	f.Add([]byte("GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		const maxBody = 256
		h, v := readReqHead(raw, maxBody)
		if v != serve {
			return
		}
		if h.body > maxHead || h.body > h.end || h.end > len(raw) || h.end-h.body > maxBody {
			t.Fatalf("served body [%d:%d] of %d bytes", h.body, h.end, len(raw))
		}
		if !bytes.HasSuffix(raw[:h.body], []byte("\r\n\r\n")) {
			t.Fatalf("head ends at %d, not after a blank line", h.body)
		}
		req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
		if err != nil {
			t.Fatalf("net/http refuses a served request: %v", err)
		}
		if req.Method != "POST" || req.URL.Path != "/v1/runs/"+string(h.id)+"/next" || req.URL.RawQuery != "" ||
			req.RequestURI != req.URL.Path || !req.ProtoAtLeast(1, 1) {
			t.Fatalf("net/http reads %s %q (%s), served id %q", req.Method, req.RequestURI, req.Proto, h.id)
		}
		if req.ContentLength != int64(h.end-h.body) || len(req.TransferEncoding) != 0 || req.Close {
			t.Fatalf("net/http frames it length %d encoding %v close %v, served %d bytes",
				req.ContentLength, req.TransferEncoding, req.Close, h.end-h.body)
		}
		if got := req.Header.Get("Content-Type"); got != string(h.contentType) || len(req.Header["Content-Type"]) > 1 {
			t.Fatalf("net/http reads Content-Type %q, served %q", req.Header["Content-Type"], h.contentType)
		}
		if got := req.Header.Get("Accept"); got != string(h.accept) || len(req.Header["Accept"]) > 1 {
			t.Fatalf("net/http reads Accept %q, served %q", req.Header["Accept"], h.accept)
		}
		for _, name := range []string{"Expect", "Upgrade", "Trailer"} {
			if req.Header.Get(name) != "" {
				t.Fatalf("served a request with %s", name)
			}
		}
		body, err := io.ReadAll(req.Body)
		if err != nil || !bytes.Equal(body, raw[h.body:h.end]) {
			t.Fatalf("net/http reads body %q (%v), served %q", body, err, raw[h.body:h.end])
		}
	})
}
