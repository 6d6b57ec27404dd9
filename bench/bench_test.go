package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestParseHead(t *testing.T) {
	cases := []struct {
		name, in            string
		status, body, clen  int
		wantErr, incomplete bool
	}{
		{name: "plain", in: "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 12\r\n\r\n{\"a\":1}", status: 200, body: 71, clen: 12},
		{name: "lower-case name, no space", in: "HTTP/1.1 409 Conflict\r\ncontent-length:3\r\n\r\nabc", status: 409, body: 43, clen: 3},
		{name: "length first", in: "HTTP/1.0 503 Service Unavailable\r\nContent-Length: 0\r\nRetry-After: 1\r\n\r\n", status: 503, body: 71, clen: 0},
		{name: "head not complete", in: "HTTP/1.1 200 OK\r\nContent-Length: 12\r\n", incomplete: true},
		{name: "empty", in: "", incomplete: true},
		{name: "chunked", in: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n", wantErr: true},
		{name: "not HTTP", in: "SSH-2.0-OpenSSH\r\n\r\n", wantErr: true},
		{name: "bad status", in: "HTTP/1.1 2x0 OK\r\nContent-Length: 1\r\n\r\n", wantErr: true},
		{name: "bad length", in: "HTTP/1.1 200 OK\r\nContent-Length: 1x\r\n\r\n", wantErr: true},
		{name: "value of another header", in: "HTTP/1.1 200 OK\r\nX-Note: Content-Length: 9\r\nContent-Length: 2\r\n\r\nok", status: 200, body: 65, clen: 2},
	}
	for _, c := range cases {
		status, body, clen, err := parseHead([]byte(c.in))
		switch {
		case c.incomplete:
			if err != errShortHead {
				t.Errorf("%s: err = %v, want errShortHead", c.name, err)
			}
		case c.wantErr:
			if err == nil || err == errShortHead {
				t.Errorf("%s: err = %v, want a parse error", c.name, err)
			}
		case err != nil || status != c.status || body != c.body || clen != c.clen:
			t.Errorf("%s: got (%d, %d, %d, %v), want (%d, %d, %d)", c.name, status, body, clen, err, c.status, c.body, c.clen)
		}
	}
}

func TestPollCodecs(t *testing.T) {
	if got := string(appendPollJSON(nil, 3, []int64{7, 1048575})); got != `{"worker":3,"completed":[7,1048575]}` {
		t.Errorf("appendPollJSON = %s", got)
	}
	if got := string(appendPollJSON(nil, 0, nil)); got != `{"worker":0}` {
		t.Errorf("appendPollJSON without a report = %s", got)
	}
	st, tasks, blocks, err := parsePollJSON([]byte(`{"status":"ok","tasks":[5,6,70],"blocks":2,"lease_seconds":1.5}`+"\n"), nil)
	if err != nil || st != stOK || blocks != 2 || len(tasks) != 3 || tasks[2] != 70 {
		t.Errorf("parsePollJSON ok = (%d, %v, %d, %v)", st, tasks, blocks, err)
	}
	st, tasks, blocks, err = parsePollJSON([]byte(`{"status":"done","blocks":0}`), tasks)
	if err != nil || st != stDone || blocks != 0 || len(tasks) != 0 {
		t.Errorf("parsePollJSON done = (%d, %v, %d, %v)", st, tasks, blocks, err)
	}
	for _, bad := range []string{`{"error":"x"}`, `{"status":"ok","tasks":[1,],"blocks":1}`, `{"status":"ok","tasks":[1]}`, `{"status":"nope","blocks":1}`} {
		if _, _, _, err := parsePollJSON([]byte(bad), nil); err == nil {
			t.Errorf("parsePollJSON(%s) accepted", bad)
		}
	}
	// A frame: magic, type, then varints; negative numbers zigzag.
	if got := appendPollFrame(nil, 1, []int64{3, 300}); !bytes.Equal(got, []byte{'S', '1', 1, 2, 2, 6, 0xd8, 0x04}) {
		t.Errorf("appendPollFrame = %v", got)
	}
	resp := append([]byte{'S', '1', 2, stWait, 2, 6, 0xd8, 0x04, 8}, make([]byte, 8)...)
	st, tasks, blocks, err = parsePollFrame(resp, nil)
	if err != nil || st != stWait || blocks != 4 || len(tasks) != 2 || tasks[1] != 300 {
		t.Errorf("parsePollFrame = (%d, %v, %d, %v)", st, tasks, blocks, err)
	}
	if _, _, _, err := parsePollFrame([]byte(`{"status":"ok","blocks":0}`), nil); err != errNotFrame {
		t.Errorf("parsePollFrame(JSON) = %v, want errNotFrame", err)
	}
	if _, _, _, err := parsePollFrame(resp[:len(resp)-3], nil); err == nil {
		t.Error("parsePollFrame accepted a truncated frame")
	}
}

func TestReduceSegments(t *testing.T) {
	// 40 polls, one finishing every 1 ms, then every 2 ms; latency i.
	var log []sample
	end := int64(0)
	for i := 1; i <= 40; i++ {
		if end += 1e6; i > 20 {
			end += 1e6
		}
		log = append(log, sample{end: end, lat: int64(i)})
	}
	seg := reduceSegments(log, 4)
	if len(seg.rate) != 4 || len(seg.p50) != 4 || len(seg.p99) != 4 {
		t.Fatalf("got %d/%d/%d segments, want 4", len(seg.rate), len(seg.p50), len(seg.p99))
	}
	if math.Abs(seg.rate[0]-1000) > 1e-9 || math.Abs(seg.rate[3]-500) > 1e-9 {
		t.Errorf("rates = %v, want 1000 first and 500 last", seg.rate)
	}
	if got := seg.p50[3]; got != 35.5 {
		t.Errorf("p50 of the last segment = %g, want 35.5", got)
	}
	// Fewer samples than segments: one segment per sample.
	if seg := reduceSegments(log[:3], 10); len(seg.rate) != 3 {
		t.Errorf("3 samples gave %d segments", len(seg.rate))
	}
}

func TestReduceUnits(t *testing.T) {
	// Two closed loops: one of two runs, 4 polls in 4 ms and 6 polls in
	// 12 ms with a pause between them that belongs to neither, and one of
	// a single run.
	var log []sample
	for i := 1; i <= 4; i++ {
		log = append(log, sample{end: int64(i) * 1e6, lat: int64(i)})
	}
	for i := 1; i <= 6; i++ {
		log = append(log, sample{end: 50e6 + int64(i)*2e6, lat: int64(10 * i)})
	}
	res := []connResult{
		{log: log, units: []unit{{lo: 0, hi: 4, wall: 4e6}, {lo: 4, hi: 10, wall: 12e6}}},
		{log: log[:2], units: []unit{{lo: 0, hi: 2, wall: 1e6}}},
	}
	u := reduceUnits(res)
	want := []float64{1000, 500, 2000}
	if len(u.rate) != len(want) {
		t.Fatalf("rates = %v, want %v", u.rate, want)
	}
	for i := range want {
		if math.Abs(u.rate[i]-want[i]) > 1e-9 {
			t.Fatalf("rates = %v, want %v", u.rate, want)
		}
	}
	if u.p50[0] != 2.5 || u.p50[1] != 35 || u.p50[2] != 1.5 {
		t.Errorf("p50s = %v, want [2.5 35 1.5]", u.p50)
	}
}

func TestQuietTenth(t *testing.T) {
	// 30 runs of two units each: the first of 10 polls, 10(k+1) us each,
	// the second of 5 polls, k+1 us each; unit times are the sums. The
	// quiet tenth is the three fastest units of either class: 30 polls in
	// 100+200+300 us and 15 polls in 5+10+15 us.
	var r connResult
	for k := 0; k < 30; k++ {
		for class, n := range []int{10, 5} {
			lat := int64(k+1) * 1e3
			if class == 0 {
				lat *= 10
			}
			lo := len(r.log)
			for i := 0; i < n; i++ {
				r.log = append(r.log, sample{lat: lat})
			}
			r.units = append(r.units, unit{class: class, lo: lo, hi: lo + n, wall: int64(n) * lat})
		}
	}
	rate, p50, p99 := quietTenth([]connResult{r})
	if want := 45 / 630e-6; math.Abs(rate-want) > 1e-6 || p50 != 10e3 || p99 != 30e3 {
		t.Errorf("quietTenth = (%g, %g, %g), want (%g, 10000, 30000)", rate, p50, p99, want)
	}
	// Fewer than three units in a class: all of them.
	r.units = r.units[:4]
	if rate, _, _ := quietTenth([]connResult{r}); math.Abs(rate-30/315e-6) > 1e-6 {
		t.Errorf("quietTenth of two runs: rate %g, want %g", rate, 30/315e-6)
	}
}

func TestQuiet(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5, 11}
	if got := quiet(v, false); got != 2 {
		t.Errorf("quiet decile, lower is better = %g, want 2", got)
	}
	if got := quiet(v, true); got != 10 {
		t.Errorf("quiet decile, higher is better = %g, want 10", got)
	}
	if got := quiet([]float64{7}, true); got != 7 {
		t.Errorf("quiet of one sample = %g", got)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Med != 3 || s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("summarize = %+v", s)
	}
	if s := summarize([]float64{1, 2}); s.Med != 1.5 {
		t.Errorf("median of two = %g", s.Med)
	}
}

func TestSelfTimes(t *testing.T) {
	child := []float64{10, 12, 50, 11}
	parent := []float64{4, 5, 6, 7}
	self := selfTimes(child, parent)
	want := []float64{6, 7, 44, 4}
	for i := range want {
		if self[i] != want[i] {
			t.Fatalf("selfTimes = %v, want %v", self, want)
		}
	}
	// The outlier poll does not move the layer's reported self time.
	if got := median(self); got != 6.5 {
		t.Errorf("median self time = %g, want 6.5", got)
	}
	if got := selfTimes(child, parent[:2]); len(got) != 2 {
		t.Errorf("unequal scripts gave %d self times, want 2", len(got))
	}
}

// spec is BENCHMARK.json as far as the tests read it.
type spec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name, Unit string
}

// TestSmoke runs every workload of BENCHMARK.json, untraced and traced,
// at smoke scale, and holds the last line of each against the contract:
// every metric of the file exactly once, with its unit and a finite
// value; correct; nothing failed; the checks ran.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns schedd children")
	}
	if err := os.Chdir(".."); err != nil { // the benchmark runs from the repository root
		t.Fatal(err)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm spec
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, main.go %d", len(bm.Workloads), len(workloads))
	}
	tables := func(defs []metricDef, file []specMetric, what string) {
		if len(defs) != len(file) {
			t.Fatalf("%s: main.go has %d metrics, BENCHMARK.json %d", what, len(defs), len(file))
		}
		for i, d := range defs {
			if d.name != file[i].Name || d.unit != file[i].Unit {
				t.Errorf("%s[%d]: main.go has %s (%s), BENCHMARK.json %s (%s)", what, i, d.name, d.unit, file[i].Name, file[i].Unit)
			}
		}
	}
	tables(endToEnd, bm.EndToEnd, "end_to_end")
	tables(perLayer, bm.PerLayer, "per_layer")

	wantChecks := map[string][]string{
		"poll_direct": {"every task id granted exactly once", "/stats: completed == total", "wire ledger equals the in-process Host", "every poll answered 200"},
		"poll_fleet":  {"every task id granted exactly once", "/stats: completed == total", "wire ledger equals the in-process Host", "every poll answered 200"},
		"recover":     {"every task id granted exactly once", "/stats: completed == total", "wire ledger equals the in-process Host", "batches held across the handoff and the crash are accepted", "no run lost across the crash"},
		"figures":     {"every series non-empty and finite", "communication volume >= the lower bound", "ordered random > dynamic > 2phases", "within 5% of the analysis"},
	}
	out := t.TempDir()
	for _, w := range bm.Workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace, "-smoke", "-out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w.Name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v\n%s", w.Name, trace, err, lines[len(lines)-1])
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, res.Correct, res.Attempted, res.Failed, stdout.String())
			}
			want := bm.EndToEnd
			if trace == "1" {
				want = bm.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: no %s", w.Name, trace, m.Name)
				case got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%s: %s = %v %s, want a finite value in %s", w.Name, trace, m.Name, got.Value, got.Unit, m.Unit)
				case trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
				if n := strings.Count(stdout.String(), "\n"+m.Name+" "); n > 1 {
					t.Errorf("%s trace=%s: %s printed %d times", w.Name, trace, m.Name, n)
				}
			}
			for _, c := range wantChecks[w.Name] {
				if !containsCheck(stdout.String(), c) {
					t.Errorf("%s trace=%s: check %q did not run\n%s", w.Name, trace, c, stdout.String())
				}
			}
			if trace == "1" {
				if info, err := os.Stat(out + "/trace.json"); err != nil || info.Size() == 0 {
					t.Errorf("%s: traced run left no trace.json: %v", w.Name, err)
				}
				os.Remove(out + "/trace.json")
			}
		}
	}
	if ents, _ := os.ReadDir(out); len(ents) == 0 {
		t.Error("no stderr logs of the children in -out")
	} else {
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "tmp-") || strings.HasPrefix(e.Name(), "trace-journal-") {
				t.Errorf("temp directory %s was left behind", e.Name())
			}
		}
	}
}

// containsCheck reports whether a passed check whose name contains part
// was printed.
func containsCheck(out, part string) bool {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "CHECK ok") && strings.Contains(line, part) {
			return true
		}
	}
	return false
}
