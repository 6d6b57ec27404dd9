package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// Poll statuses, numbered as the binary frame numbers them.
const (
	stOK   = 1
	stWait = 2
	stDone = 3
)

// pollFn is one worker poll at some depth of the stack: worker w reports
// the batch it holds and receives its next one, appended to buf[:0].
type pollFn func(w int, completed, buf []int64) (status int, tasks []int64, blocks int, err error)

// runSpec is one run of the poll shape. Its wire form is the
// CreateRunRequest fields id, kernel, strategy, n, p, seed, batch.
type runSpec struct {
	ID       string `json:"id"`
	Kernel   string `json:"kernel"`
	Strategy string `json:"strategy"`
	N        int    `json:"n"`
	P        int    `json:"p"`
	Seed     uint64 `json:"seed"`
	Batch    int    `json:"batch"`
}

// ledger is what the generator itself saw of one run. For a given seed
// every field repeats exactly: the drivers are deterministic and each
// run has one client.
type ledger struct {
	Polls, Tasks, Blocks, Waits int
}

// runState drives one run the way p workers would: round-robin, each
// worker reporting its previous batch in its next poll, until every
// worker has been told "done". It also keeps the exactly-once ledger:
// a bit per task id, set when the id is granted.
type runState struct {
	spec    runSpec
	total   int
	held    [][]int64
	spare   []int64
	done    []bool
	nDone   int
	next    int
	granted []uint64
	dups    int
	led     ledger
}

func newRunState(spec runSpec, total int) *runState {
	return &runState{
		spec:    spec,
		total:   total,
		held:    make([][]int64, spec.P),
		done:    make([]bool, spec.P),
		granted: make([]uint64, (total+63)/64),
	}
}

func (rs *runState) finished() bool { return rs.nDone == rs.spec.P }

// step issues the next poll of the script. It returns the poll's status.
func (rs *runState) step(poll pollFn) (int, error) {
	w := rs.next
	for rs.done[w] {
		w = (w + 1) % rs.spec.P
	}
	rs.next = (w + 1) % rs.spec.P
	status, tasks, blocks, err := poll(w, rs.held[w], rs.spare)
	if err != nil {
		return 0, err
	}
	rs.spare, rs.held[w] = rs.held[w][:0], tasks
	rs.led.Polls++
	rs.led.Blocks += blocks
	rs.led.Tasks += len(tasks)
	for _, t := range tasks {
		if t < 0 {
			return 0, fmt.Errorf("run %s: negative task id %d", rs.spec.ID, t)
		}
		// Flat kernels number their tasks densely; the DAG kernels'
		// ids are sparse, so the set grows to the largest id seen.
		for int(t>>6) >= len(rs.granted) {
			rs.granted = append(rs.granted, make([]uint64, len(rs.granted)+1)...)
		}
		if rs.granted[t>>6]&(1<<(t&63)) != 0 {
			rs.dups++
		}
		rs.granted[t>>6] |= 1 << (t & 63)
	}
	switch status {
	case stWait:
		rs.led.Waits++
	case stDone:
		rs.done[w] = true
		rs.nDone++
	}
	return status, nil
}

// checkLedger is the exactly-once check on a drained run.
func (rs *runState) checkLedger() error {
	if rs.dups > 0 {
		return fmt.Errorf("run %s: %d task ids granted more than once", rs.spec.ID, rs.dups)
	}
	if !rs.finished() {
		return nil
	}
	if rs.led.Tasks != rs.total {
		return fmt.Errorf("run %s: %d of %d task ids granted", rs.spec.ID, rs.led.Tasks, rs.total)
	}
	return nil
}

// --- wire codecs of the poll, written out here so that the benchmark
// depends on the wire format and on no codec symbol of the program ----

func appendPollJSON(dst []byte, w int, completed []int64) []byte {
	dst = append(dst, `{"worker":`...)
	dst = strconv.AppendInt(dst, int64(w), 10)
	if len(completed) > 0 {
		dst = append(dst, `,"completed":[`...)
		for i, t := range completed {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, t, 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// parsePollJSON reads {"status":"ok","tasks":[…],"blocks":N,…}; the
// server writes the keys in this order and without spaces.
func parsePollJSON(body []byte, buf []int64) (status int, tasks []int64, blocks int, err error) {
	tasks = buf[:0]
	const pre = `{"status":"`
	if len(body) < len(pre)+2 || string(body[:len(pre)]) != pre {
		return 0, tasks, 0, fmt.Errorf("unexpected poll answer %q", clip(body))
	}
	i := len(pre)
	switch {
	case hasPrefixAt(body, i, `ok"`):
		status, i = stOK, i+3
	case hasPrefixAt(body, i, `wait"`):
		status, i = stWait, i+5
	case hasPrefixAt(body, i, `done"`):
		status, i = stDone, i+5
	default:
		return 0, tasks, 0, fmt.Errorf("unexpected poll status in %q", clip(body))
	}
	if hasPrefixAt(body, i, `,"tasks":[`) {
		i += len(`,"tasks":[`)
		for {
			v := int64(0)
			start := i
			for i < len(body) && body[i] >= '0' && body[i] <= '9' {
				v = v*10 + int64(body[i]-'0')
				i++
			}
			if i == start || i >= len(body) {
				return 0, tasks, 0, fmt.Errorf("malformed task list in %q", clip(body))
			}
			tasks = append(tasks, v)
			if body[i] == ']' {
				i++
				break
			}
			if body[i] != ',' {
				return 0, tasks, 0, fmt.Errorf("malformed task list in %q", clip(body))
			}
			i++
		}
	}
	if !hasPrefixAt(body, i, `,"blocks":`) {
		return 0, tasks, 0, fmt.Errorf("poll answer without blocks: %q", clip(body))
	}
	i += len(`,"blocks":`)
	start := i
	for i < len(body) && body[i] >= '0' && body[i] <= '9' {
		blocks = blocks*10 + int(body[i]-'0')
		i++
	}
	if i == start {
		return 0, tasks, 0, fmt.Errorf("poll answer without blocks: %q", clip(body))
	}
	return status, tasks, blocks, nil
}

func hasPrefixAt(b []byte, i int, s string) bool {
	return len(b)-i >= len(s) && string(b[i:i+len(s)]) == s
}

func clip(b []byte) []byte {
	if len(b) > 80 {
		return b[:80]
	}
	return b
}

const frameType = "application/x-schedd-frame"

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func appendPollFrame(dst []byte, w int, completed []int64) []byte {
	dst = append(dst, 'S', '1', 0x01)
	dst = binary.AppendUvarint(dst, zigzag(int64(w)))
	dst = binary.AppendUvarint(dst, uint64(len(completed)))
	for _, t := range completed {
		dst = binary.AppendUvarint(dst, zigzag(t))
	}
	return dst
}

var errNotFrame = errors.New("poll answer is not a frame")

func parsePollFrame(body []byte, buf []int64) (status int, tasks []int64, blocks int, err error) {
	tasks = buf[:0]
	if len(body) < 4 || body[0] != 'S' || body[1] != '1' || body[2] != 0x02 {
		return 0, tasks, 0, errNotFrame
	}
	status = int(body[3])
	i := 4
	uv := func() uint64 {
		v, k := binary.Uvarint(body[i:])
		if k <= 0 {
			err = errors.New("truncated frame")
			return 0
		}
		i += k
		return v
	}
	unzig := func(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
	count := uv()
	for k := uint64(0); k < count && err == nil; k++ {
		tasks = append(tasks, unzig(uv()))
	}
	blocks = int(unzig(uv()))
	if err == nil && len(body)-i != 8 { // the lease, a float64
		err = errors.New("malformed frame tail")
	}
	return status, tasks, blocks, err
}

// wirePoll returns the pollFn that sends run id's polls over pc, as JSON
// or as frames. A non-200 answer is an error: the workloads are chosen
// so that no poll is refused.
func wirePoll(pc *pollConn, id string, frames bool) pollFn {
	path := "/v1/runs/" + id + "/next"
	prefix := requestPrefix(path, "application/json", "")
	if frames {
		prefix = requestPrefix(path, frameType, frameType)
	}
	var body []byte
	return func(w int, completed, buf []int64) (int, []int64, int, error) {
		if frames {
			body = appendPollFrame(body[:0], w, completed)
		} else {
			body = appendPollJSON(body[:0], w, completed)
		}
		code, resp, err := pc.roundTrip(prefix, body)
		if err != nil {
			return 0, buf[:0], 0, err
		}
		if code != 200 {
			return 0, buf[:0], 0, fmt.Errorf("poll of run %s worker %d: HTTP %d %s", id, w, code, clip(resp))
		}
		if frames {
			return parsePollFrame(resp, buf)
		}
		return parsePollJSON(resp, buf)
	}
}

// --- closed and open loops -----------------------------------------------

// connResult is what one connection's loop leaves behind.
type connResult struct {
	log       []sample
	units     []unit // closed loop only
	attempted int
	err       error
}

// unit is a part of what a closed loop polled of one run: log[lo:hi],
// and the wall time from the first of those polls leaving to the last
// one's answer. A run is cut every unitPolls polls, and class is the
// part's number: the early polls of a run carry hundreds of tasks and
// the late ones a single one, so only units of one class do the same
// work.
type unit struct {
	class  int
	lo, hi int
	wall   int64
}

// unitPolls makes a unit 15 ms of polling directly and 80 ms through
// the router: the good tenth of the units needs stretches in which the
// box is quiet, and the shorter a unit, the shorter the stretch that
// holds one.
const unitPolls = 600

// closedLoop drives runs one after another on pc, each until maxPolls
// more polls have been answered (0 = until drained), timing every poll
// from send to full response. A worker blocks on its poll, so the next
// request leaves only when the previous answer is in.
func closedLoop(pc *pollConn, runs []*runState, maxPolls func(*runState) int, t0 time.Time) connResult {
	var res connResult
	for _, rs := range runs {
		poll := wirePoll(pc, rs.spec.ID, false)
		limit := 0
		if maxPolls != nil {
			limit = maxPolls(rs)
		}
		class, lo, first := 0, len(res.log), time.Now()
		cut := func() {
			if hi := len(res.log); hi > lo {
				now := time.Now()
				res.units = append(res.units, unit{class: class, lo: lo, hi: hi, wall: int64(now.Sub(first))})
				class, lo, first = class+1, hi, now
			}
		}
		for k := 0; !rs.finished() && (limit == 0 || k < limit); k++ {
			if len(res.log)-lo == unitPolls {
				cut()
			}
			start := time.Now()
			res.attempted++
			if _, err := rs.step(poll); err != nil {
				res.err = err
				return res
			}
			end := time.Now()
			res.log = append(res.log, sample{end: int64(end.Sub(t0)), lat: int64(end.Sub(start))})
		}
		cut()
	}
	return res
}

// openLoop sends the polls of runs on pc at a fixed rate for d: send k
// is due at t0 + k/rate whether or not the previous answer is in, and
// its latency runs from that due time, so a stall is charged to every
// poll it delays. late counts sends that left more than lateAfter behind
// schedule. Pacing sleeps to just short of the due time and then yields;
// the sleep is nanosleep(2) on the connection's own thread, because the
// runtime's timers round a sub-millisecond sleep up to a millisecond.
func openLoop(pc *pollConn, runs []*runState, rate float64, d time.Duration) (res connResult, late int) {
	const lateAfter = 200 * time.Microsecond
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	k := 0
	for _, rs := range runs {
		poll := wirePoll(pc, rs.spec.ID, false)
		for !rs.finished() {
			due := t0.Add(time.Duration(k) * interval)
			if due.Sub(t0) >= d {
				return res, late
			}
			if wait := time.Until(due) - 60*time.Microsecond; wait > 0 {
				ts := syscall.NsecToTimespec(int64(wait))
				syscall.Nanosleep(&ts, nil)
			}
			for time.Now().Before(due) {
				runtime.Gosched()
			}
			if time.Since(due) > lateAfter {
				late++
			}
			res.attempted++
			if _, err := rs.step(poll); err != nil {
				res.err = err
				return res, late
			}
			end := time.Now()
			res.log = append(res.log, sample{end: int64(end.Sub(t0)), lat: int64(end.Sub(due))})
			k++
		}
	}
	return res, late
}
