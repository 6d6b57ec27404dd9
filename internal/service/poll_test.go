package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"hetsched/internal/pollserve"
)

// servePollAllocCeiling bounds the allocations of one granted poll
// answered through ServePoll, the transport-neutral poll and Host.Next
// included. Measured: 0 (1 under -race, where sync.Pool drops a share of
// what is put back); the same poll through ServeHTTP and an in-memory
// ResponseWriter makes 5 (the benchmark's service.allocs_per_poll).
const servePollAllocCeiling = 1

// TestServePollAllocs is a counted gate: a poll the loop carries
// allocates nothing.
func TestServePollAllocs(t *testing.T) {
	svc := New(Options{GCInterval: -1})
	defer svc.Close()
	q := CreateRunRequest{ID: "allocs", Kernel: KernelOuter, Strategy: "random", N: 64, P: 4, Seed: 7, Batch: 1}
	run, err := svc.opts.NewRun(q.ID, &q)
	if err != nil {
		t.Fatal(err)
	}
	svc.reg.Add(run)
	// One worker drains the run, reporting in each poll the batch the
	// last one granted; the request is rebuilt in place.
	req := pollserve.Request{ID: q.ID, ContentType: []byte("application/json")}
	var dst []byte
	poll := func() {
		req.Body = append(req.Body[:0], `{"worker":0,"completed":[`...)
		if _, tasks, ok := bytes.Cut(dst, []byte(`"tasks":[`)); ok {
			req.Body = append(req.Body, tasks[:bytes.IndexByte(tasks, ']')]...)
		}
		req.Body = append(req.Body, "]}"...)
		dst = svc.ServePoll(dst[:0], &req)
	}
	for i := 0; i < 100; i++ {
		poll()
	}
	if avg := testing.AllocsPerRun(500, poll); avg > servePollAllocCeiling {
		t.Errorf("ServePoll allocates %.1f objects per poll, ceiling %d", avg, servePollAllocCeiling)
	} else {
		t.Logf("%.1f allocations per poll", avg)
	}
	if !bytes.HasPrefix(dst, []byte("HTTP/1.1 200 OK\r\n")) || !bytes.Contains(dst, []byte(`{"status":"ok","tasks":[`)) {
		t.Fatalf("last poll answered %q, want a grant", dst)
	}
}

// TestPollTransportsAgree: handleNext and ServePoll are two carriers of
// one poll, so for every answer the poll route can give they write the
// same status, headers and body.
func TestPollTransportsAgree(t *testing.T) {
	svcs := [2]*Server{}
	for i := range svcs {
		svc := New(Options{GCInterval: -1})
		defer svc.Close()
		for _, id := range []string{"live", "fenced", "gone"} {
			q := CreateRunRequest{ID: id, Kernel: KernelOuter, Strategy: "2phases", N: 8, P: 4, Seed: 7, Batch: 2}
			run, err := svc.opts.NewRun(id, &q)
			if err != nil {
				t.Fatal(err)
			}
			svc.reg.Add(run)
		}
		fenced, _ := svc.reg.Get("fenced")
		fenced.Host.Fence()
		svc.reg.MigrateOut("gone")
		svcs[i] = svc
	}
	cases := []struct {
		id, contentType, accept, body string
		want                          int
	}{
		{id: "live", contentType: "application/json", body: `{"worker":0}`, want: 200},
		{id: "live", accept: "text/plain, " + ContentTypeFrame, body: `{"worker":1}`, want: 200},
		{id: "live", body: `{"worker":1,"completed":[63]}`, want: 400},
		{id: "live", contentType: ContentTypeFrame, body: `{"worker":0}`, want: 400},
		{id: "live", body: `{"worker":0,"extra":1}`, want: 400},
		{id: "nobody", body: `{"worker":0}`, want: 404},
		{id: "gone", body: `{"worker":0}`, want: 410},
		{id: "fenced", body: `{"worker":0}`, want: 409},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodPost, "/v1/runs/"+c.id+"/next", bytes.NewReader([]byte(c.body)))
		pr := pollserve.Request{ID: c.id, Body: []byte(c.body)}
		if c.contentType != "" {
			r.Header.Set("Content-Type", c.contentType)
			pr.ContentType = []byte(c.contentType)
		}
		if c.accept != "" {
			r.Header.Set("Accept", c.accept)
			pr.Accept = []byte(c.accept)
		}
		rec := httptest.NewRecorder()
		svcs[0].ServeHTTP(rec, r)
		if rec.Code != c.want {
			t.Errorf("%s %q: status %d, want %d (%s)", c.id, c.body, rec.Code, c.want, rec.Body)
		}
		want := "HTTP/1.1 " + strconv.Itoa(rec.Code) + " " + http.StatusText(rec.Code) +
			"\r\nContent-Length: " + rec.Header().Get("Content-Length") +
			"\r\nContent-Type: " + rec.Header().Get("Content-Type")
		if ra := rec.Header().Get("Retry-After"); ra != "" {
			want += "\r\nRetry-After: " + ra
		}
		got := svcs[1].ServePoll(nil, &pr)
		head, body, _ := bytes.Cut(got, []byte("\r\n\r\n"))
		date := bytes.LastIndex(head, []byte("\r\nDate: "))
		if date < 0 || string(head[:date]) != want || !bytes.Equal(body, rec.Body.Bytes()) {
			t.Errorf("%s %q: ServePoll wrote\n%q\nwant the head %q, a Date, and the body %q", c.id, c.body, got, want, rec.Body)
		}
	}
}
