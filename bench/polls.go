package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hetsched/internal/analysis"
	"hetsched/internal/federation"
)

// The poll shape, everywhere: the paper's one-step-per-interaction
// baseline. One run is 16 384 tasks in about 2 400 polls. It is this
// small because a run is the unit of timing (see reduceUnits): the good
// decile of the units needs stretches in which the box is quiet, and the
// shorter a unit, the shorter the stretch that holds one.
const (
	pollKernel   = "outer"
	pollStrategy = "2phases"
	pollBatch    = 1
)

func (e *env) shape() (n, p int) {
	if e.smoke {
		return 64, 64
	}
	return 128, 64
}

// warmUnits is how many runs a connection drives before the ones that
// are timed: the first run finds the children's code cold and their
// heaps small.
const warmUnits = 1

// Runs for -seconds. The work is fixed by (-seed, -seconds), never by
// the clock, so that every count repeats exactly; the factors make it
// last about 0.6 x -seconds while the reference box is quiet (a run then
// takes the connection 0.075 s directly and 0.34 s through the router)
// and about -seconds while it is loud.
func (e *env) directRuns() int { return e.scaled(7.5) }
func (e *env) fleetRuns() int  { return e.scaled(1.7) }

func (e *env) scaled(perSecond float64) int {
	if e.smoke {
		return 1
	}
	return warmUnits + max(4, int(math.Round(perSecond*float64(e.seconds))))
}

// Open-loop rates, polls per second over all connections: about 45% of
// the closed-loop capacity measured on the reference box.
const (
	openRateDirect = 8000
	openRateFleet  = 2500
)

func (e *env) spec(id string, k int) runSpec {
	n, p := e.shape()
	return runSpec{ID: id, Kernel: pollKernel, Strategy: pollStrategy, N: n, P: p, Seed: e.seed + uint64(k), Batch: pollBatch}
}

// topology is a set-up poll workload: children up, runs created, the
// generator's connection open. There is one connection, because the
// benchmark runs on one CPU.
type topology struct {
	f        *fleet
	entry    *child   // where the generator connects
	hosts    []*child // the processes that host runs
	router   *child   // nil on poll_direct
	journals []string // the hosts' journal directories, if any
	conn     *pollConn
	runs     []*runState // closed-loop runs
	open     []*runState // open-loop runs (traced run only)
	createUS []float64
}

func (t *topology) close() {
	if t.conn != nil {
		t.conn.close()
	}
	t.f.close()
}

func (t *topology) all() []*child {
	all := append([]*child(nil), t.hosts...)
	if t.router != nil {
		all = append(all, t.router)
	}
	return all
}

// create makes a run on the entry point and returns its state, timing
// the request.
func (t *topology) create(spec runSpec) (*runState, error) {
	start := time.Now()
	total, err := createRun(t.entry.url(), spec)
	if err != nil {
		return nil, err
	}
	t.createUS = append(t.createUS, float64(time.Since(start))/1e3)
	return newRunState(spec, total), nil
}

// setupDirect starts one volatile schedd and creates the runs on it.
func setupDirect(e *env) (*topology, error) {
	f, err := newFleet(e.bin, e.out)
	if err != nil {
		return nil, err
	}
	track(f)
	t := &topology{f: f}
	host, err := f.spawn("direct", "")
	if err != nil {
		return t, err
	}
	t.entry, t.hosts = host, []*child{host}
	if err := host.waitHealthy(10 * time.Second); err != nil {
		return t, err
	}
	id := func(k int) string { return fmt.Sprintf("r%d", k) }
	return t, t.fill(e, e.directRuns(), e.openRuns(openRateDirect), id)
}

// fill creates the closed-loop runs (and, for a traced run, the
// open-loop ones) and opens the connection. Run k is seeded seed+k and
// named idFor(k).
func (t *topology) fill(e *env, closed, open int, idFor func(k int) string) error {
	if !e.trace {
		open = 0
	}
	for k := 0; k < closed+open; k++ {
		rs, err := t.create(e.spec(idFor(k), k))
		if err != nil {
			return err
		}
		if k < closed {
			t.runs = append(t.runs, rs)
		} else {
			t.open = append(t.open, rs)
		}
	}
	var err error
	t.conn, err = dialPoll(t.entry.addr)
	return err
}

// openSeconds is the length of the open-loop phase of a traced run.
func (e *env) openSeconds() float64 {
	if e.smoke {
		return 0.5
	}
	return float64(e.seconds) / 3
}

// openRuns is how many fresh runs the open loop can use up at rate polls
// per second.
func (e *env) openRuns(rate float64) int {
	n, p := e.shape()
	pollsPerRun := float64(n*p) / 4 // a floor: 2 431 polls at n=128, p=64
	return int(rate*e.openSeconds()/pollsPerRun) + 1
}

// setupFleet starts two journaled peers and a router in front of them,
// and creates through the router runs whose ids are chosen so that each
// peer owns half.
func setupFleet(e *env) (*topology, error) {
	f, err := newFleet(e.bin, e.out)
	if err != nil {
		return nil, err
	}
	track(f)
	t := &topology{f: f}
	for i := 0; i < 2; i++ {
		dir := filepath.Join(f.tmp, fmt.Sprintf("journal-%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return t, err
		}
		peer, err := f.spawn(fmt.Sprintf("peer%d", i), "", "-journal-dir", dir, "-snapshot-every", "0")
		if err != nil {
			return t, err
		}
		t.hosts = append(t.hosts, peer)
		t.journals = append(t.journals, dir)
	}
	urls := []string{t.hosts[0].url(), t.hosts[1].url()}
	const epoch = 1
	router, err := f.spawn("router", "", "-router", "-peers", strings.Join(urls, ","), "-ring-epoch", fmt.Sprint(epoch))
	if err != nil {
		return t, err
	}
	t.router, t.entry = router, router
	for _, c := range t.all() {
		if err := c.waitHealthy(10 * time.Second); err != nil {
			return t, err
		}
	}
	// The router names a peer by its URL and places a run by hashing its
	// id on the ring of those names; the same ring here tells which ids
	// land where.
	ring, err := federation.NewRing(urls, 0, epoch)
	if err != nil {
		return t, err
	}
	next := 0
	// Runs alternate between the peers, so each owns half.
	idOwnedBy := func(k int) string {
		for {
			id := fmt.Sprintf("r%d", next)
			next++
			if ring.Owner(id) == k%2 {
				return id
			}
		}
	}
	return t, t.fill(e, e.fleetRuns(), e.openRuns(openRateFleet), idOwnedBy)
}

// setupRepeats is how often a workload is set up: once to measure on,
// and once more, taken down again at once, after each of the
// setupRepeats-1 slices its measurement is cut into. That spreads the
// set-up times over the run like every other unit's.
const setupRepeats = 10

func (e *env) slices() int {
	if e.smoke {
		return 1
	}
	return setupRepeats - 1
}

// slice returns the i-th of k nearly equal parts of v.
func slice[T any](v []T, i, k int) []T { return v[i*len(v)/k : (i+1)*len(v)/k] }

// setups times a workload's set-ups, first child exec to ready.
type setups struct {
	e     *env
	setup func(*env) (*topology, error)
	secs  []float64
}

func (s *setups) make() (*topology, error) {
	start := time.Now()
	t, err := s.setup(s.e)
	if err != nil {
		if t != nil {
			t.close()
		}
		return nil, err
	}
	s.secs = append(s.secs, time.Since(start).Seconds())
	return t, nil
}

// again sets the workload up next to the one being measured and takes
// it down.
func (s *setups) again() error {
	t, err := s.make()
	if err == nil {
		t.close()
	}
	return err
}

func pollDirect(e *env) error {
	return pollWorkload(e, setupDirect, openRateDirect, "schedd exec -> healthy, runs created, connections open")
}

func pollFleet(e *env) error {
	return pollWorkload(e, setupFleet, openRateFleet, "2 peers + router exec -> healthy, runs created through the router")
}

func pollWorkload(e *env, setup func(*env) (*topology, error), openRate float64, setupIs string) error {
	su := &setups{e: e, setup: setup}
	t, err := su.make()
	if err != nil {
		return err
	}
	fleet := t.router != nil
	err = measurePolls(e, t, su, openRate)
	t.close() // the replay below wants the box to itself
	e.rep.putQuiet("setup_s", su.secs, setupIs)
	if err == nil && e.trace {
		err = tracePolls(e, fleet)
	}
	return err
}

// cpuOf sums the CPU seconds of the given processes.
func cpuOf(pids ...int) float64 {
	sum := 0.0
	for _, pid := range pids {
		s, _ := cpuSeconds(pid)
		sum += s
	}
	return sum
}

func pidsOf(cs []*child) []int {
	pids := make([]int, len(cs))
	for i, c := range cs {
		pids[i] = c.pid()
	}
	return pids
}

// tally folds a loop's result into the report's operation counts.
func (r *report) tally(res connResult) error {
	r.attempted += res.attempted
	if res.err != nil {
		r.failed++
	}
	return res.err
}

// measurePolls is the timed part of poll_direct and poll_fleet: the
// closed loop over every run, in slices with a set-up after each, then
// (traced run) the open loop, then the checks.
func measurePolls(e *env, t *topology, su *setups, openRate float64) error {
	rep := e.rep
	hostPids, self := pidsOf(t.hosts), os.Getpid()
	var routerPids []int
	if t.router != nil {
		routerPids = []int{t.router.pid()}
	}
	var hostCPU, routerCPU, genCPU float64
	t0 := time.Now()
	closed := func(runs []*runState) connResult {
		h, r, g := cpuOf(hostPids...), cpuOf(routerPids...), cpuOf(self)
		res := closedLoop(t.conn, runs, nil, t0)
		hostCPU, routerCPU, genCPU = hostCPU+cpuOf(hostPids...)-h, routerCPU+cpuOf(routerPids...)-r, genCPU+cpuOf(self)-g
		return res
	}
	// The first runs find the children's code cold and their heaps
	// small: they are driven, and checked, but are no units.
	warm := 0
	if len(t.runs) > warmUnits {
		warm = warmUnits
	}
	err := rep.tally(closed(t.runs[:warm]))
	var res []connResult
	for i := 0; i < e.slices() && err == nil; i++ {
		part := closed(slice(t.runs[warm:], i, e.slices()))
		res = append(res, part)
		if err = rep.tally(part); err == nil && !e.smoke {
			if err := su.again(); err != nil {
				return err
			}
		}
	}
	rep.check("every poll answered 200", err)

	units := reduceUnits(res)
	rate, p50, p99 := quietTenth(res)
	rep.putValue("rate_per_s", rate, units.rate, "polls answered 200 / wall, closed loop: the quiet tenth of the runs, next to every run's")
	rep.putValue("op_ms", p50*1e-6, scale(units.p50, 1e-6), "poll send -> full response, p50: the quiet tenth's polls, next to every run's")
	rep.putValue("slow_op_ms", p99*1e-6, scale(units.p99, 1e-6), "poll send -> full response, p99: the quiet tenth's polls, next to every run's")
	rss := 0.0
	for _, c := range t.all() {
		mb, err := peakRSSMB(c.pid())
		if err != nil {
			return err
		}
		rss += mb
	}
	rep.put1("peak_rss_mb", rss, "sum of the children's VmHWM after the closed loop")

	led := ledgerRows(e, t.runs, t.conn.sent, t.conn.recv)
	polls := float64(led.Polls)
	rep.put("service.create_run_us", t.createUS, "POST /v1/runs at the entry point")
	cpuRows(rep, polls, genCPU, hostCPU, routerCPU)
	if t.router != nil {
		var bytes int64
		for _, dir := range t.journals {
			bytes += dirBytes(dir)
		}
		rep.put1("durable.bytes_per_poll", float64(bytes)/polls, "journal directory bytes / polls")
	}

	if e.trace {
		openPhase(e, t, openRate)
	}
	checkRuns(rep, append(t.runs[:len(t.runs):len(t.runs)], t.open...), func(*runState) string { return t.entry.url() })
	return nil
}

// openPhase is the open loop of a traced poll run: fresh runs polled at
// rate polls per second.
func openPhase(e *env, t *topology, rate float64) {
	rep := e.rep
	d := time.Duration(e.openSeconds() * float64(time.Second))
	res, late := openLoop(t.conn, t.open, rate, d)
	rep.check("every open-loop poll answered 200", rep.tally(res))
	seg := reduceSegments(res.log, segments)
	sends := len(res.log)
	rep.put1("loadgen.open_rate", float64(sends)/d.Seconds(), fmt.Sprintf("polls answered / s at %g/s offered", rate))
	rep.put("loadgen.open_p50_us", scale(seg.p50, 1e-3), "due time -> full response, p50 per segment")
	rep.put("loadgen.open_p99_us", scale(seg.p99, 1e-3), "due time -> full response, p99 per segment")
	rep.put1("loadgen.open_late_ratio", float64(late)/float64(max(sends, 1)), "sends that left > 200us behind schedule")
}

func scale(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}

// ledgerRows reports what the generator's own ledger says about runs:
// the paper's figure of merit, and the exact per-poll counts. sent and
// recv are the bytes that crossed the generator's connections for them.
func ledgerRows(e *env, runs []*runState, sent, recv int64) ledger {
	var led ledger
	for _, rs := range runs {
		led.Polls += rs.led.Polls
		led.Tasks += rs.led.Tasks
		led.Blocks += rs.led.Blocks
		led.Waits += rs.led.Waits
	}
	rep, polls := e.rep, float64(led.Polls)
	n, p := e.shape()
	rep.put1("comm_ratio", float64(led.Blocks)/(float64(len(runs))*lowerBoundOuterEven(n, p)),
		"blocks shipped over the wire / analysis.LowerBoundOuter, equal speeds")
	rep.put1("core.tasks_per_poll", float64(led.Tasks)/polls, "wire ledger")
	rep.put1("core.blocks_per_task", float64(led.Blocks)/float64(led.Tasks), "wire ledger")
	rep.put1("core.wait_ratio", float64(led.Waits)/polls, "wait answers / polls, wire ledger")
	rep.put1("service.req_bytes_per_poll", float64(sent)/polls, "request bytes with head, generator side")
	rep.put1("service.resp_bytes_per_poll", float64(recv)/polls, "response bytes with head, generator side")
	return led
}

// cpuRows reports who spent the CPU: seconds of utime+stime over the
// polls, read from /proc from outside the children.
func cpuRows(rep *report, polls, gen, host, router float64) {
	rep.put1("service.host_cpu_us_per_poll", host*1e6/polls, "utime+stime of the hosting children / polls")
	if router > 0 {
		rep.put1("federation.router_cpu_us_per_poll", router*1e6/polls, "utime+stime of the router / polls")
	}
	rep.put1("loadgen.cpu_us_per_poll", gen*1e6/polls, "utime+stime of this process / polls")
	share := gen / (gen + host + router)
	rep.put1("loadgen.cpu_share", share, "generator CPU / all CPU")
	if share > 0.4 {
		rep.notes = append(rep.notes, fmt.Sprintf("the generator used %.0f%% of the CPU: the poll metrics measure it as much as the server", share*100))
	}
}

// lowerBoundOuterEven is the paper's lower bound on the blocks one outer
// run must ship to p equally fast workers: round-robin polling gives
// every virtual worker the same share.
func lowerBoundOuterEven(n, p int) float64 {
	rs := make([]float64, p)
	for k := range rs {
		rs[k] = 1 / float64(p)
	}
	return analysis.LowerBoundOuter(rs, n)
}

// checkRuns runs the three ledger checks on every run: exactly-once by
// the generator's bitset, the server's own /stats on drained runs, and
// equality with the in-process twin driven by the same script. base
// says which host holds a run.
func checkRuns(rep *report, runs []*runState, base func(*runState) string) {
	var ledgerErr, statsErr, mirrorErr error
	first := func(dst *error, err error) {
		if *dst == nil {
			*dst = err
		}
	}
	for _, rs := range runs {
		if rs.led.Polls == 0 {
			continue // an open-loop run the phase did not get to
		}
		first(&ledgerErr, rs.checkLedger())
		if rs.finished() {
			first(&statsErr, checkDrained(base(rs), rs))
		}
		twin, err := mirror(rs.spec, rs.led.Polls)
		first(&mirrorErr, err)
		if err == nil && twin != rs.led {
			first(&mirrorErr, fmt.Errorf("run %s: wire ledger %+v, in-process twin %+v", rs.spec.ID, rs.led, twin))
		}
	}
	rep.check("every task id granted exactly once", ledgerErr)
	rep.check("/stats: completed == total, outstanding == 0, assigned == completed + reclaimed", statsErr)
	rep.check("wire ledger equals the in-process Host driven by the same script", mirrorErr)
}
