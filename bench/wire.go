package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"hetsched/internal/core"
	"hetsched/internal/service"
)

// Everything off the poll path: run creation, /stats, the in-process
// mirror the wire ledger is compared with.

// createRun posts spec to base and returns the run's task count.
func createRun(base string, spec runSpec) (total int, err error) {
	body, _ := json.Marshal(spec)
	resp, err := control.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return 0, fmt.Errorf("creating run %s: HTTP %d %s", spec.ID, resp.StatusCode, clip(b))
	}
	var info struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal(b, &info); err != nil || info.Total <= 0 {
		return 0, fmt.Errorf("creating run %s: unexpected answer %s", spec.ID, clip(b))
	}
	return info.Total, nil
}

// runStats is the part of GET /v1/runs/{id}/stats the checks read.
type runStats struct {
	State       string `json:"state"`
	Total       int    `json:"total"`
	Assigned    int    `json:"assigned"`
	Completed   int    `json:"completed"`
	Outstanding int    `json:"outstanding"`
	Reclaimed   int    `json:"reclaimed"`
	Blocks      int    `json:"blocks"`
	Polls       int    `json:"polls"`
}

// getStats fetches a run's stats; status is the HTTP status when the
// request itself went through.
func getStats(base, id string) (st runStats, status int, err error) {
	resp, err := control.Get(base + "/v1/runs/" + id + "/stats")
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return st, resp.StatusCode, nil
	}
	return st, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&st)
}

// checkDrained is the server-side ledger check on a run the generator
// drove to "done": everything completed, nothing in flight, every grant
// accounted for, and the server counted what the generator counted.
func checkDrained(base string, rs *runState) error {
	st, code, err := getStats(base, rs.spec.ID)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("run %s: /stats answered %d", rs.spec.ID, code)
	}
	switch {
	case st.Completed != st.Total || st.Total != rs.total:
		return fmt.Errorf("run %s: completed %d of %d", rs.spec.ID, st.Completed, st.Total)
	case st.Outstanding != 0:
		return fmt.Errorf("run %s: %d tasks outstanding after done", rs.spec.ID, st.Outstanding)
	case st.Assigned != st.Completed+st.Reclaimed:
		return fmt.Errorf("run %s: assigned %d != completed %d + reclaimed %d", rs.spec.ID, st.Assigned, st.Completed, st.Reclaimed)
	case st.Blocks != rs.led.Blocks || st.Polls != rs.led.Polls:
		return fmt.Errorf("run %s: server saw %d polls %d blocks, generator %d and %d", rs.spec.ID, st.Polls, st.Blocks, rs.led.Polls, rs.led.Blocks)
	}
	return nil
}

// newHost builds the in-process twin of a run: the same driver the
// server builds from the same request, behind a volatile Host.
func newHost(spec runSpec) (*service.Host, int, error) {
	drv, err := service.NewDriver(&service.CreateRunRequest{
		Kernel: spec.Kernel, Strategy: spec.Strategy, N: spec.N, P: spec.P, Seed: spec.Seed,
	})
	if err != nil {
		return nil, 0, err
	}
	return service.NewHost(drv, spec.Batch, 0), drv.Total(), nil
}

// hostPoll is a poll at depth d1: straight into Host.Next.
func hostPoll(h *service.Host) pollFn {
	var completed []core.Task
	return func(w int, done, buf []int64) (int, []int64, int, error) {
		completed = completed[:0]
		for _, t := range done {
			completed = append(completed, core.Task(t))
		}
		a, status, err := h.Next(w, completed)
		buf = buf[:0]
		for _, t := range a.Tasks {
			buf = append(buf, int64(t))
		}
		switch status {
		case "ok":
			return stOK, buf, a.Blocks, err
		case "wait":
			return stWait, buf, a.Blocks, err
		}
		return stDone, buf, a.Blocks, err
	}
}

// driveScript drives spec's script through poll for at most maxPolls
// polls (0 = until drained), outside any timed phase, and returns the
// ledger.
func driveScript(spec runSpec, total, maxPolls int, poll pollFn) (ledger, error) {
	rs := newRunState(spec, total)
	for !rs.finished() && (maxPolls == 0 || rs.led.Polls < maxPolls) {
		if _, err := rs.step(poll); err != nil {
			return ledger{}, err
		}
	}
	return rs.led, rs.checkLedger()
}

// mirror drives the in-process twin of spec with the same script and
// returns its ledger. The wire ledger of the same run must equal it.
func mirror(spec runSpec, maxPolls int) (ledger, error) {
	h, total, err := newHost(spec)
	if err != nil {
		return ledger{}, err
	}
	return driveScript(spec, total, maxPolls, hostPoll(h))
}
