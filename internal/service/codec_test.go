package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"hetsched/internal/core"
)

// --- JSON fast path vs encoding/json ----------------------------------

// FuzzNextRequestParse is the decode-side differential fuzzer: whenever
// the fast parser claims a body, DecodeStrict must accept the same
// bytes and produce the same values. (The converse is not required —
// the fast path may defer any input to the stdlib — so acceptance
// parity is one-directional by construction and value parity is the
// property under test.)
func FuzzNextRequestParse(f *testing.F) {
	for _, s := range []string{
		// The FuzzAPIDecode seeds that are poll bodies, plus fast-path
		// edge shapes: key order, whitespace, empty array, zero worker,
		// negatives, 64-bit extremes, duplicates, leading zeros.
		`{"worker":3,"completed":[1,2,99]}`,
		`{"worker":0}`,
		`{}`,
		`{"completed":[7],"worker":2}`,
		`{ "worker" : 5 , "completed" : [ 1 , 2 ] }`,
		`{"worker":1,"completed":[]}`,
		`{"worker":-1,"completed":[-9223372036854775808,9223372036854775807]}`,
		`{"worker":1,"completed":[01]}`,
		`{"worker":1,"worker":2}`,
		`{"worker":1.5}`,
		`{"worker":1e2}`,
		`{"worker":1,"completed":[2],"bogus":3}`,
		`{"worker":1} {"worker":2}`,
		`{"worker":9223372036854775808}`,
		"{\"worker\":\t1,\n\"completed\":[3]}\r\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		worker, completed, ok := parseNextRequest(data, nil)
		if !ok {
			return
		}
		var q NextRequest
		if err := DecodeStrict(bytes.NewReader(data), &q); err != nil {
			t.Fatalf("fast path accepted %q, DecodeStrict rejected: %v", data, err)
		}
		if int64(q.Worker) != worker {
			t.Fatalf("worker mismatch on %q: fast %d, stdlib %d", data, worker, q.Worker)
		}
		if len(q.Completed) != len(completed) {
			t.Fatalf("completed length mismatch on %q: fast %d, stdlib %d", data, len(completed), len(q.Completed))
		}
		for i := range completed {
			if int64(completed[i]) != q.Completed[i] {
				t.Fatalf("completed[%d] mismatch on %q: fast %d, stdlib %d", i, data, completed[i], q.Completed[i])
			}
		}
	})
}

// FuzzNextResponseAppend is the encode-side differential fuzzer: the
// hand-rolled response encoder must be byte-identical to
// json.NewEncoder for every response a host can give — one of the
// protocol's three statuses, with a finite lease.
func FuzzNextResponseAppend(f *testing.F) {
	f.Add(uint8(0), []byte{}, 0, 0.0)
	f.Add(uint8(1), []byte{1, 2, 3}, 7, 30.0)
	f.Add(uint8(2), []byte{0xff}, -1, 0.5)
	f.Add(uint8(3), []byte{9}, 1<<40, 1e-7)
	f.Add(uint8(1), []byte{200, 100}, 3, 1.2345678e22)
	f.Add(uint8(1), []byte{1}, 2, math.MaxFloat64)
	f.Fuzz(func(t *testing.T, statusSel uint8, taskBytes []byte, blocks int, lease float64) {
		if math.IsNaN(lease) || math.IsInf(lease, 0) {
			return // a lease is a finite Duration
		}
		status := []string{StatusOK, StatusWait, StatusDone}[int(statusSel)%3]
		tasks := make([]core.Task, len(taskBytes))
		resp := NextResponse{Status: status, Blocks: blocks, LeaseSeconds: lease}
		if len(taskBytes) > 0 {
			resp.Tasks = make([]int64, len(taskBytes))
			for i, b := range taskBytes {
				v := (int64(b) - 128) << (uint(i) % 40) // spread across magnitudes and signs
				tasks[i] = core.Task(v)
				resp.Tasks[i] = v
			}
		}
		got := appendNextResponseJSON(nil, status, tasks, blocks, lease)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&resp); err != nil {
			t.Fatalf("stdlib rejected what the fast path encoded: %v", err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("encoding mismatch for %+v:\nfast   %q\nstdlib %q", resp, got, want.Bytes())
		}
	})
}

// --- Binary frame ------------------------------------------------------

// FuzzFrameDecode asserts totality of both frame decoders on
// arbitrary bytes, and byte-identical round trips for whatever they
// accept.
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendNextRequestFrame(nil, 3, []int64{1, 2, 99}))
	f.Add(AppendNextRequestFrame(nil, -1, nil))
	if b, err := AppendNextResponseFrame(nil, &NextResponse{Status: StatusOK, Tasks: []int64{5, -5}, Blocks: 2, LeaseSeconds: 30}); err == nil {
		f.Add(b)
	}
	if b, err := AppendNextResponseFrame(nil, &NextResponse{Status: StatusDone}); err == nil {
		f.Add(b)
	}
	f.Add([]byte{'S', '1', frameReq})
	f.Add([]byte{'S', '1', frameResp, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoders keep the one decoding rule, padded varints
		// refused, so whatever decodes re-encodes to the same bytes.
		if q, err := DecodeNextRequestFrame(data); err == nil {
			if re := AppendNextRequestFrame(nil, int64(q.Worker), q.Completed); !bytes.Equal(re, data) {
				t.Fatalf("accepted request %x re-encodes as %x", data, re)
			}
		}
		if r, err := DecodeNextResponseFrame(data); err == nil {
			re, err := AppendNextResponseFrame(nil, &r)
			if err != nil {
				t.Fatalf("decoded response %+v does not re-encode: %v", r, err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("accepted response %x re-encodes as %x", data, re)
			}
		}
	})
}

// FuzzFrameJSONDifferential drives the same logical request through
// the frame codec and the JSON codec and demands identical structs —
// the "frame ↔ JSON produce identical NextRequest/NextResponse"
// contract of the issue.
func FuzzFrameJSONDifferential(f *testing.F) {
	f.Add(int64(0), []byte{}, uint8(1), 0, 0.0)
	f.Add(int64(3), []byte{1, 2, 3}, uint8(2), 5, 30.0)
	f.Add(int64(-7), []byte{0, 0xff}, uint8(3), -2, 0.25)
	f.Fuzz(func(t *testing.T, worker int64, taskBytes []byte, statusSel uint8, blocks int, lease float64) {
		if math.IsNaN(lease) || math.IsInf(lease, 0) {
			return // JSON cannot carry these at all
		}
		tasks := make([]int64, len(taskBytes))
		for i, b := range taskBytes {
			tasks[i] = (int64(b) - 128) << (uint(i) % 40)
		}
		// Request: frame decode vs JSON decode of the equivalent body.
		var viaJSON NextRequest
		jbody, err := json.Marshal(&NextRequest{Worker: int(worker), Completed: tasks})
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeStrict(bytes.NewReader(jbody), &viaJSON); err != nil {
			t.Fatal(err)
		}
		viaFrame, err := DecodeNextRequestFrame(AppendNextRequestFrame(nil, worker, tasks))
		if err != nil {
			t.Fatalf("frame round trip rejected: %v", err)
		}
		if viaFrame.Worker != viaJSON.Worker || len(viaFrame.Completed) != len(viaJSON.Completed) {
			t.Fatalf("request mismatch: frame %+v, json %+v", viaFrame, viaJSON)
		}
		for i := range viaFrame.Completed {
			if viaFrame.Completed[i] != viaJSON.Completed[i] {
				t.Fatalf("request task %d mismatch: frame %+v, json %+v", i, viaFrame, viaJSON)
			}
		}
		// Response: same, from the server-side encoders.
		status := []string{StatusOK, StatusWait, StatusDone}[int(statusSel)%3]
		coreTasks := make([]core.Task, len(tasks))
		for i, v := range tasks {
			coreTasks[i] = core.Task(v)
		}
		fbody := appendNextResponseFrame(nil, status, coreTasks, blocks, lease)
		respFrame, err := DecodeNextResponseFrame(fbody)
		if err != nil {
			t.Fatalf("response frame round trip rejected: %v", err)
		}
		jresp := appendNextResponseJSON(nil, status, coreTasks, blocks, lease)
		var respJSON NextResponse
		if err := DecodeStrict(bytes.NewReader(jresp), &respJSON); err != nil {
			t.Fatalf("fast JSON output rejected by strict decode: %v", err)
		}
		if respFrame.Status != respJSON.Status || respFrame.Blocks != respJSON.Blocks ||
			respFrame.LeaseSeconds != respJSON.LeaseSeconds || len(respFrame.Tasks) != len(respJSON.Tasks) {
			t.Fatalf("response mismatch: frame %+v, json %+v", respFrame, respJSON)
		}
		for i := range respFrame.Tasks {
			if respFrame.Tasks[i] != respJSON.Tasks[i] {
				t.Fatalf("response task %d mismatch: frame %+v, json %+v", i, respFrame, respJSON)
			}
		}
	})
}

// TestFrameRejectsDamage walks every truncation prefix of valid frames
// and a set of corrupted variants; all must reject, none may panic.
func TestFrameRejectsDamage(t *testing.T) {
	req := AppendNextRequestFrame(nil, 42, []int64{1, 500, -3})
	respFull, err := AppendNextResponseFrame(nil, &NextResponse{Status: StatusOK, Tasks: []int64{9, 10}, Blocks: 2, LeaseSeconds: 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(req); i++ {
		if _, err := DecodeNextRequestFrame(req[:i]); err == nil {
			t.Errorf("request truncated at %d accepted", i)
		}
	}
	for i := 0; i < len(respFull); i++ {
		if _, err := DecodeNextResponseFrame(respFull[:i]); err == nil {
			t.Errorf("response truncated at %d accepted", i)
		}
	}
	corrupt := [][]byte{
		append(append([]byte{}, req...), 0x00),                          // trailing byte
		{'X', '1', frameReq, 0},                                         // bad magic
		{'S', '2', frameReq, 0},                                         // bad version
		{'S', '1', 0x7f, 0},                                             // unknown message type
		{'S', '1', frameReq, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},        // unterminated varint
		{'S', '1', frameReq, 0, 0xff, 0x01},                             // count exceeding frame
		{'S', '1', frameResp, 0},                                        // status code 0 reserved
		{'S', '1', frameResp, 4},                                        // status code out of range
		{'S', '1', frameReq, 0x80, 0x00, 0},                             // padded worker
		{'S', '1', frameReq, 0, 0x81, 0x00, 2},                          // padded task count
		{'S', '1', frameReq, 0, 1, 0x82, 0x00},                          // padded task
		{'S', '1', frameResp, 1, 0x80, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // padded task count
	}
	for _, c := range corrupt {
		if _, err := DecodeNextRequestFrame(c); err == nil {
			t.Errorf("corrupt request %x accepted", c)
		}
		if _, err := DecodeNextResponseFrame(c); err == nil {
			t.Errorf("corrupt response %x accepted", c)
		}
	}
	// A response frame fed to the request decoder (and vice versa) is a
	// type confusion, not a match.
	if _, err := DecodeNextRequestFrame(respFull); err == nil {
		t.Error("response frame accepted as request")
	}
	if _, err := DecodeNextResponseFrame(req); err == nil {
		t.Error("request frame accepted as response")
	}
}

// TestNextContentNegotiation drives one run over httptest in all four
// request/response codec combinations and checks they see identical
// scheduling: JSON and frame are transports, not semantics.
func TestNextContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Options{DefaultBatch: 2, DefaultLease: 30 * time.Second})
	var info RunInfo
	if code := call(t, http.MethodPost, ts.URL+"/v1/runs",
		CreateRunRequest{Kernel: KernelOuter, Strategy: "2phases", N: 8, P: 4, Seed: 11}, &info); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	url := ts.URL + "/v1/runs/" + info.ID + "/next"

	poll := func(worker int64, completed []int64, frameReq, frameResp bool) NextResponse {
		t.Helper()
		var body []byte
		contentType := "application/json"
		if frameReq {
			body = AppendNextRequestFrame(nil, worker, completed)
			contentType = ContentTypeFrame
		} else {
			var err error
			body, err = json.Marshal(&NextRequest{Worker: int(worker), Completed: completed})
			if err != nil {
				t.Fatal(err)
			}
		}
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		if frameResp {
			req.Header.Set("Accept", ContentTypeFrame)
		}
		httpResp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer httpResp.Body.Close()
		raw, err := io.ReadAll(httpResp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if httpResp.StatusCode != http.StatusOK {
			t.Fatalf("poll(%d) = %d: %s", worker, httpResp.StatusCode, raw)
		}
		var resp NextResponse
		if frameResp {
			if ct := httpResp.Header.Get("Content-Type"); ct != ContentTypeFrame {
				t.Fatalf("Accept frame answered with Content-Type %q", ct)
			}
			if resp, err = DecodeNextResponseFrame(raw); err != nil {
				t.Fatalf("decoding frame response: %v", err)
			}
		} else {
			if ct := httpResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("JSON poll answered with Content-Type %q", ct)
			}
			if err := DecodeStrict(bytes.NewReader(raw), &resp); err != nil {
				t.Fatalf("decoding JSON response: %v", err)
			}
		}
		return resp
	}

	// Drain the run rotating through all four codec combinations; the
	// run must complete exactly once no matter how each poll is framed.
	pending := map[int64][]int64{}
	seen := map[int64]bool{}
	mode := 0
	for done := 0; done < 4; {
		done = 0
		for w := int64(0); w < 4; w++ {
			frameReq := mode&1 != 0
			frameResp := mode&2 != 0
			mode++
			resp := poll(w, pending[w], frameReq, frameResp)
			for _, task := range pending[w] {
				if seen[task] {
					t.Fatalf("task %d completed twice", task)
				}
				seen[task] = true
			}
			pending[w] = resp.Tasks
			switch resp.Status {
			case StatusDone:
				done++
			case StatusOK:
				if resp.LeaseSeconds != 30 {
					t.Fatalf("lease_seconds = %v, want 30 (mode %d)", resp.LeaseSeconds, mode)
				}
			}
		}
	}
	if len(seen) != 64 {
		t.Fatalf("completed %d distinct tasks, want 64", len(seen))
	}
}

// TestFrameRequestBadFrameIs400 pins the negotiation error contract: a
// frame-typed body that does not parse answers 400 with a JSON error
// (errors never come framed), and a JSON body is unaffected by an
// Accept header it cannot honor.
func TestFrameRequestBadFrameIs400(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var info RunInfo
	if code := call(t, http.MethodPost, ts.URL+"/v1/runs",
		CreateRunRequest{Kernel: KernelOuter, Strategy: "random", N: 4, P: 2, Seed: 1}, &info); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs/"+info.ID+"/next",
		strings.NewReader(`{"worker":0}`)) // valid JSON, invalid frame
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeFrame)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad frame = %d, want 400", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("error Content-Type = %q, want JSON", ct)
	}
	var e ErrorResponse
	if err := DecodeStrict(resp.Body, &e); err != nil {
		t.Fatalf("error body: %v", err)
	}
	if !strings.Contains(e.Error, "frame") {
		t.Fatalf("error %q does not mention the frame", e.Error)
	}
}
