package sim_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/durable"
	"hetsched/internal/pollserve"
	"hetsched/internal/rng"
	"hetsched/internal/service"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

// kernelStrategies lists every kernel × strategy the service builds,
// in service.Kernels' order.
var kernelStrategies = func() (ks []struct{ kernel, strategy string }) {
	for _, k := range service.Kernels {
		for _, s := range k.Strategies {
			ks = append(ks, struct{ kernel, strategy string }{k.Name, s.Name})
		}
	}
	return ks
}()

// randomRun draws a run of kernel/strategy from r: its shape, seed and
// (for 2phases, half the time) an explicit beta, and a fixed or drifting
// platform. newDriver and newModel build fresh, identical instances on
// every call; req is the creation request newDriver builds from.
func randomRun(t *testing.T, kernel, strategy string, drift bool, r *rng.PCG) (newDriver func() core.Driver, newModel func() speeds.Model, req service.CreateRunRequest) {
	req = service.CreateRunRequest{Kernel: kernel, Strategy: strategy, P: 1 + r.Intn(8), Seed: r.Uint64()}
	switch kernel {
	case "outer":
		req.N = 1 + r.Intn(30)
	case "matmul":
		req.N = 1 + r.Intn(10)
	default:
		req.N = 1 + r.Intn(9)
	}
	if strategy == "2phases" && r.Intn(2) == 0 {
		req.Beta = 1 + 4*r.Float64()
	}
	init := speeds.UniformRange(req.P, 10, 100, r.Split())
	driftSeed := r.Uint64()
	newDriver = func() core.Driver {
		drv, err := service.NewDriver(&req)
		if err != nil {
			t.Fatal(err)
		}
		return drv
	}
	newModel = func() speeds.Model {
		if drift {
			return speeds.NewDrift(init, 0.2, rng.New(driftSeed))
		}
		return speeds.NewFixed(init)
	}
	return newDriver, newModel, req
}

// TestRunDriverMatchesReference runs every kernel × strategy through
// sim.RunDriver and through the reference loop it replaced, on fixed
// and drifting speeds over random shapes, and requires the same ledger,
// makespan, wait time and completion-order schedule.
func TestRunDriverMatchesReference(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 5
	}
	for _, ks := range kernelStrategies {
		for _, drift := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-%s/drift=%v", ks.kernel, ks.strategy, drift), func(t *testing.T) {
				r := rng.New(uint64(len(ks.kernel)*31 + len(ks.strategy)))
				for i := 0; i < seeds; i++ {
					newDriver, newModel, _ := randomRun(t, ks.kernel, ks.strategy, drift, r)
					got := sim.RunDriver(newDriver(), newModel())
					want := sim.RefRunDriver(newDriver(), newModel())
					for _, f := range []struct {
						name      string
						got, want any
					}{
						{"Blocks", got.Blocks, want.Blocks},
						{"BlocksPer", got.BlocksPer, want.BlocksPer},
						{"TasksPer", got.TasksPer, want.TasksPer},
						{"Requests", got.Requests, want.Requests},
						{"Makespan", got.Makespan, want.Makespan},
						{"WaitTime", got.WaitTime, want.WaitTime},
						{"Schedule", got.Schedule, want.Schedule},
					} {
						if !reflect.DeepEqual(f.got, f.want) {
							t.Fatalf("run %d: %s %v, reference %v", i, f.name, f.got, f.want)
						}
					}
				}
			})
		}
	}
}

// servedDriver serves a driver through a service.Host at batch 1.
// Complete is a Host.Next poll carrying the report, and Next hands over
// the grant that poll made, or polls for one. A grant not yet handed
// over counts in Remaining: the host grants inside the poll that
// reports, so without it the master would retire the worker and lose
// the batch.
type servedDriver struct {
	t     *testing.T
	drv   core.Driver // a twin of the driver inside h: its shape and task costs
	h     *service.Host
	held  []core.Assignment
	has   []bool
	nheld int
	polls int
	// afterPoll, when set, runs after every poll; it may replace h.
	afterPoll func(d *servedDriver)
	// srv, when set, serves every poll as bytes through its ServePoll
	// (wirePoll), as an S1 frame when frame is set and as JSON if not;
	// h is then only read for its stats.
	srv   *service.Server
	frame bool
	out   []byte
}

func newServed(t *testing.T, drv core.Driver, h *service.Host) *servedDriver {
	return &servedDriver{t: t, drv: drv, h: h, held: make([]core.Assignment, drv.P()), has: make([]bool, drv.P())}
}

func (d *servedDriver) poll(w int, report []core.Task) {
	var a core.Assignment
	var status string
	var err error
	if d.srv != nil {
		a, status, err = d.wirePoll(w, report)
	} else {
		a, status, err = d.h.Next(w, report)
	}
	if err != nil {
		d.t.Fatalf("poll %d by worker %d: %v", d.polls, w, err)
	}
	d.polls++
	if status == service.StatusOK {
		d.held[w], d.has[w] = a, true
		d.nheld++
	}
	if d.afterPoll != nil {
		d.afterPoll(d)
	}
}

// wirePoll is Host.Next in bytes: the poll is encoded as JSON or as an
// S1 frame and handed to Server.ServePoll, and the response it appends
// is parsed back — status line, Content-Length, Content-Type and body,
// with nothing after it.
func (d *servedDriver) wirePoll(w int, report []core.Task) (core.Assignment, string, error) {
	req := pollserve.Request{ID: servedID}
	contentType := "application/json"
	if d.frame {
		contentType = service.ContentTypeFrame
		req.Accept = []byte(contentType)
		req.Body = appendFrameRequest(nil, w, report)
	} else {
		q := service.NextRequest{Worker: w}
		for _, t := range report {
			q.Completed = append(q.Completed, int64(t))
		}
		var err error
		if req.Body, err = json.Marshal(q); err != nil {
			return core.Assignment{}, "", err
		}
	}
	req.ContentType = []byte(contentType)
	d.out = d.srv.ServePoll(d.out[:0], &req)
	br := bufio.NewReader(bytes.NewReader(d.out))
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return core.Assignment{}, "", err
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return core.Assignment{}, "", err
	}
	if rest, _ := io.ReadAll(br); len(rest) > 0 {
		return core.Assignment{}, "", fmt.Errorf("%d bytes after the response", len(rest))
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		return core.Assignment{}, "", fmt.Errorf("status %d: %s", resp.StatusCode, body)
	case resp.ContentLength != int64(len(body)):
		return core.Assignment{}, "", fmt.Errorf("Content-Length %d, body %d bytes", resp.ContentLength, len(body))
	case resp.Header.Get("Content-Type") != contentType:
		return core.Assignment{}, "", fmt.Errorf("Content-Type %q, want %q", resp.Header.Get("Content-Type"), contentType)
	}
	var nr service.NextResponse
	if d.frame {
		nr, err = decodeFrameResponse(body)
	} else {
		err = service.DecodeStrict(bytes.NewReader(body), &nr)
	}
	if err != nil {
		return core.Assignment{}, "", err
	}
	a := core.Assignment{Blocks: nr.Blocks}
	for _, t := range nr.Tasks {
		a.Tasks = append(a.Tasks, core.Task(t))
	}
	return a, nr.Status, nil
}

// appendFrameRequest and decodeFrameResponse are the worker's side of
// the S1 frame, written from the contract in internal/service/codec.go:
//
//	request := 'S' '1' 0x01 zigzag(worker) uvarint(count) zigzag(task)*count
//	response:= 'S' '1' 0x02 statusByte uvarint(count) zigzag(task)*count
//	           zigzag(blocks) float64le(lease_seconds)
func appendFrameRequest(dst []byte, w int, report []core.Task) []byte {
	dst = append(dst, 'S', '1', 0x01)
	dst = binary.AppendVarint(dst, int64(w))
	dst = binary.AppendUvarint(dst, uint64(len(report)))
	for _, t := range report {
		dst = binary.AppendVarint(dst, int64(t))
	}
	return dst
}

func decodeFrameResponse(b []byte) (service.NextResponse, error) {
	var nr service.NextResponse
	statuses := map[byte]string{1: service.StatusOK, 2: service.StatusWait, 3: service.StatusDone}
	if len(b) < 4 || string(b[:3]) != "S1\x02" || statuses[b[3]] == "" {
		return nr, fmt.Errorf("frame: bad head % x", b[:min(len(b), 4)])
	}
	nr.Status = statuses[b[3]]
	b = b[4:]
	bad := false
	varint := func() int64 {
		v, n := binary.Varint(b)
		if n <= 0 {
			bad = true
			return 0
		}
		b = b[n:]
		return v
	}
	count, n := binary.Uvarint(b)
	if n <= 0 || count > uint64(len(b)) {
		return nr, fmt.Errorf("frame: bad task count")
	}
	b = b[n:]
	for k := uint64(0); k < count; k++ {
		nr.Tasks = append(nr.Tasks, varint())
	}
	nr.Blocks = int(varint())
	if bad || len(b) != 8 {
		return nr, fmt.Errorf("frame: truncated or trailing bytes")
	}
	nr.LeaseSeconds = math.Float64frombits(binary.LittleEndian.Uint64(b))
	return nr, nil
}

func (d *servedDriver) Complete(w int, ts []core.Task) { d.poll(w, ts) }

// Reassign fails the test: only the host's leases take a batch back,
// and the simulator never abandons one.
func (d *servedDriver) Reassign(w int, ts []core.Task) {
	d.t.Fatalf("worker %d abandoned %v: a served batch is only reclaimed by the host", w, ts)
}

func (d *servedDriver) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	if !d.has[w] {
		d.poll(w, nil)
	}
	if !d.has[w] {
		return core.Assignment{}, false
	}
	d.has[w] = false
	d.nheld--
	return core.Assignment{Tasks: append(buf[:0], d.held[w].Tasks...), Blocks: d.held[w].Blocks}, true
}

func (d *servedDriver) Next(w int) (core.Assignment, bool) { return d.NextInto(w, nil) }
func (d *servedDriver) Remaining() int                     { return d.h.Stats().Remaining + d.nheld }
func (d *servedDriver) Total() int                         { return d.drv.Total() }
func (d *servedDriver) P() int                             { return d.drv.P() }
func (d *servedDriver) Name() string                       { return d.drv.Name() }

func (d *servedDriver) TaskCost(t core.Task) float64 {
	if c, ok := d.drv.(core.TaskCoster); ok {
		return c.TaskCost(t)
	}
	return 1
}

// journaled is a journaled service.Server on a frozen clock, so a
// lease never expires. open starts the server on dir, recovering
// whatever the journal holds; closing and opening again is a crash and
// restart.
type journaled struct {
	t   *testing.T
	dir string
	jr  *durable.Log
	srv *service.Server
}

const servedID = "served"

func frozenClock() time.Time { return time.Unix(1000, 0) }

func newJournaled(t *testing.T) *journaled {
	j := &journaled{t: t, dir: t.TempDir()}
	j.open()
	t.Cleanup(j.close)
	return j
}

func (j *journaled) open() {
	jr, err := durable.Open(j.dir)
	if err != nil {
		j.t.Fatal(err)
	}
	j.jr = jr
	j.srv = service.New(service.Options{GCInterval: -1, TTL: -1, Now: frozenClock, Journal: jr})
	if err := j.srv.RecoveryErr(); err != nil {
		j.t.Fatalf("recover: %v", err)
	}
}

func (j *journaled) close() {
	j.srv.Close()
	j.jr.Close()
}

// create creates req's run at batch 1 under a lease of an hour.
func (j *journaled) create(req service.CreateRunRequest) *service.Host {
	req.ID, req.Batch, req.LeaseSeconds = servedID, 1, 3600
	body, err := json.Marshal(&req)
	if err != nil {
		j.t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	j.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		j.t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	return j.host()
}

func (j *journaled) host() *service.Host {
	run, ok := j.srv.Registry().Get(servedID)
	if !ok {
		j.t.Fatalf("run %q is not registered", servedID)
	}
	return run.Host
}

// TestServedMatchesSimulated serves every kernel × strategy through a
// service.Host under sim.RunDriver and requires what the bare driver
// gives: the same ledger, makespan, wait time and schedule, and a host
// ledger that counts the blocks and requests the simulator counts. The
// host is bare; or a journaled server's, with events attached and a
// lease that never expires; or that, checkpointed at a random poll
// and, at a later one, crashed and recovered from the journal and the
// snapshot, or migrated to another server; or a journaled server's
// polled in bytes through Server.ServePoll, as JSON on even seeds and
// as S1 frames on odd ones (wire, on the short seed count).
func TestServedMatchesSimulated(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 5
	}
	recovered := func(_ *testing.T, j *journaled) *service.Host {
		j.close()
		j.open()
		return j.host()
	}
	migrated := func(t *testing.T, j *journaled) *service.Host {
		dst := newJournaled(t)
		if err := j.srv.Migrate(servedID, func(b []byte) error {
			_, err := dst.srv.ImportRun(b)
			return err
		}); err != nil {
			t.Fatalf("migrate: %v", err)
		}
		return dst.host()
	}
	for _, v := range []struct {
		name      string
		journaled bool
		// event, when set, runs at a random poll and returns the host
		// that serves the run from then on.
		event func(*testing.T, *journaled) *service.Host
		wire  bool
	}{{"bare", false, nil, false}, {"journaled", true, nil, false}, {"recovered", true, recovered, false},
		{"migrated", true, migrated, false}, {"wire", true, nil, true}} {
		n := seeds
		if v.wire {
			n = min(seeds, 5)
		}
		for _, ks := range kernelStrategies {
			for _, drift := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s-%s/drift=%v", v.name, ks.kernel, ks.strategy, drift), func(t *testing.T) {
					r := rng.New(uint64(len(ks.kernel)*31 + len(ks.strategy)))
					for i := 0; i < n; i++ {
						newDriver, newModel, req := randomRun(t, ks.kernel, ks.strategy, drift, r)
						want := sim.RunDriver(newDriver(), newModel())
						var d *servedDriver
						fired := false
						if !v.journaled {
							drv := newDriver()
							d = newServed(t, drv, service.NewHost(drv, 1, 0))
						} else {
							j := newJournaled(t)
							d = newServed(t, newDriver(), j.create(req))
							if v.wire {
								d.srv, d.frame = j.srv, i%2 == 1
							}
							if v.event != nil {
								// Every grant takes a poll, so the event comes.
								at := 1 + r.Intn(want.Requests)
								cut := r.Intn(at)
								d.afterPoll = func(d *servedDriver) {
									switch d.polls {
									case cut:
										if err := j.srv.Checkpoint(); err != nil {
											t.Fatalf("checkpoint: %v", err)
										}
									case at:
										fired = true
										d.h = v.event(t, j)
									}
								}
							}
						}
						got := sim.RunDriver(d, newModel())
						if fired != (v.event != nil) {
							t.Fatalf("run %d: the event fired %v", i, fired)
						}
						st := d.h.Stats()
						blocksPer := make([]int, len(st.Workers))
						for w, ws := range st.Workers {
							blocksPer[w] = ws.Blocks
						}
						for _, f := range []struct {
							name      string
							got, want any
						}{
							{"Blocks", got.Blocks, want.Blocks},
							{"BlocksPer", got.BlocksPer, want.BlocksPer},
							{"TasksPer", got.TasksPer, want.TasksPer},
							{"Requests", got.Requests, want.Requests},
							{"Makespan", got.Makespan, want.Makespan},
							{"WaitTime", got.WaitTime, want.WaitTime},
							{"Schedule", got.Schedule, want.Schedule},
							{"host Blocks", st.Blocks, want.Blocks},
							{"host Workers[].Blocks", blocksPer, want.BlocksPer},
							{"host Requests", st.Requests, want.Requests},
							{"host State", st.State, service.StateComplete},
						} {
							if !reflect.DeepEqual(f.got, f.want) {
								t.Fatalf("run %d: %s %v, simulated %v", i, f.name, f.got, f.want)
							}
						}
					}
				})
			}
		}
	}
}

// countingDriver counts the requests its driver is asked, and those
// asked of it once drained.
type countingDriver struct {
	core.Driver
	calls, drained int
}

func (d *countingDriver) count() {
	d.calls++
	if d.Driver.Remaining() == 0 {
		d.drained++
	}
}

func (d *countingDriver) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	d.count()
	return d.Driver.NextInto(w, buf)
}

func (d *countingDriver) Next(w int) (core.Assignment, bool) { return d.NextInto(w, nil) }

func (d *countingDriver) TaskCost(t core.Task) float64 {
	if c, ok := d.Driver.(core.TaskCoster); ok {
		return c.TaskCost(t)
	}
	return 1
}

// TestMasterNeverPollsADrainedDriver counts the master's requests, of
// a bare driver and of one served through a service.Host. A flat run,
// whose requests never find nothing schedulable, asks exactly once per
// grant even at p=1000, where most workers find the driver drained; and
// no run of any kernel asks a drained driver.
func TestMasterNeverPollsADrainedDriver(t *testing.T) {
	for _, served := range []bool{false, true} {
		run := func(cd *countingDriver, model speeds.Model) *sim.Metrics {
			if !served {
				return sim.RunDriver(cd, model)
			}
			return sim.RunDriver(newServed(t, cd, service.NewHost(cd, 1, 0)), model)
		}
		drv, err := service.NewDriver(&service.CreateRunRequest{Kernel: "outer", Strategy: "dynamic", N: 60, P: 1000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		cd := &countingDriver{Driver: drv}
		m := run(cd, speeds.NewFixed(speeds.UniformRange(1000, 10, 100, rng.New(3))))
		if cd.calls != m.Requests || cd.drained != 0 {
			t.Fatalf("served=%v p=1000 flat run: %d requests to the driver (%d of them drained) for %d grants",
				served, cd.calls, cd.drained, m.Requests)
		}

		r := rng.New(11)
		for _, ks := range kernelStrategies {
			for i := 0; i < 5; i++ {
				newDriver, newModel, _ := randomRun(t, ks.kernel, ks.strategy, i%2 == 1, r)
				cd := &countingDriver{Driver: newDriver()}
				m := run(cd, newModel())
				if cd.drained != 0 || cd.calls < m.Requests {
					t.Fatalf("served=%v %s-%s run %d: %d requests to the driver (%d of them drained) for %d grants",
						served, ks.kernel, ks.strategy, i, cd.calls, cd.drained, m.Requests)
				}
			}
		}
	}
}
