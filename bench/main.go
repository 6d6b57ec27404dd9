// Command bench is this repository's benchmark: it drives real schedd
// processes over loopback TCP and the paper's simulators in-process,
// checks every output, and prints each metric of BENCHMARK.json by name.
// See README.md for the workloads, the metrics and the method.
//
//	go run ./bench -workload poll_fleet -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
)

// metricDef names one metric of BENCHMARK.json and its unit.
type metricDef struct{ name, unit string }

// endToEnd is reported by every workload in an untraced run. What
// rate_per_s, op_ms and slow_op_ms time is the workload's own operation;
// README.md has the table.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rate_per_s", "1/s"},
	{"op_ms", "ms"},
	{"slow_op_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"comm_ratio", "ratio"},
}

// perLayer is reported in a traced run; a layer the workload bypasses
// reports 0.
var perLayer = []metricDef{
	{"core.step_ns.outer", "ns"}, {"core.step_ns.matmul", "ns"}, {"core.step_ns.cholesky", "ns"},
	{"core.step_ns.lu", "ns"}, {"core.step_ns.qr", "ns"},
	{"core.tasks_per_poll", "count"}, {"core.blocks_per_task", "ratio"}, {"core.wait_ratio", "ratio"},
	{"sim.ns_per_task.outer-random", "ns"}, {"sim.ns_per_task.outer-dynamic", "ns"}, {"sim.ns_per_task.outer-2phases", "ns"},
	{"sim.ns_per_task.matmul-random", "ns"}, {"sim.ns_per_task.matmul-dynamic", "ns"}, {"sim.ns_per_task.matmul-2phases", "ns"},
	{"dag.ns_per_task.cholesky", "ns"}, {"dag.ns_per_task.lu", "ns"}, {"dag.ns_per_task.qr", "ns"},
	{"analysis.optimal_beta_ns.outer", "ns"}, {"analysis.optimal_beta_ns.matmul", "ns"},
	{"experiments.parallel_speedup", "ratio"},
	{"service.host_ns", "ns"}, {"service.handler_ns", "ns"}, {"service.handler_frame_ns", "ns"},
	{"service.allocs_per_poll", "count"}, {"service.req_bytes_per_poll", "B"}, {"service.resp_bytes_per_poll", "B"},
	{"service.create_run_us", "us"}, {"service.host_cpu_us_per_poll", "us"}, {"service.heap_bytes_per_kpoll", "B"},
	{"events.publish_ns", "ns"},
	{"durable.journal_ns", "ns"}, {"durable.bytes_per_poll", "B"},
	{"durable.snapshot_bytes", "B"}, {"durable.replay_ns_per_mutation", "ns"},
	{"nethttp.residue_ns", "ns"}, {"nethttp.frame_saving_ns", "ns"},
	{"federation.proxy_ns", "ns"}, {"federation.ring_owner_ns", "ns"}, {"federation.router_cpu_us_per_poll", "us"},
	{"loadgen.cpu_us_per_poll", "us"}, {"loadgen.cpu_share", "ratio"},
	{"loadgen.open_rate", "1/s"}, {"loadgen.open_p50_us", "us"}, {"loadgen.open_p99_us", "us"}, {"loadgen.open_late_ratio", "ratio"},
	{"trace.sum_over_e2e", "ratio"}, {"trace.overhead_ns", "ns"},
}

type workload struct {
	name   string
	socket bool // needs schedd children
	run    func(*env) error
}

// workloads in the order `go run ./bench` runs them.
var workloads = []workload{
	{"poll_direct", true, pollDirect},
	{"poll_fleet", true, pollFleet},
	{"recover", true, recoverWorkload},
	{"figures", false, figures},
}

// env is one workload's invocation.
type env struct {
	seed    uint64
	seconds int
	trace   bool
	smoke   bool
	out     string // children's stderr, journals, trace.json
	bin     string // the schedd binary
	rep     *report
}

// row is one printed metric: the value that is reported, and the
// summary of the samples it was taken from.
type row struct {
	name, unit, what string
	v                float64
	s                summary
}

// report collects a workload's metrics, operation counts and failed
// checks.
type report struct {
	rows              []row
	attempted, failed int
	checks            []checked
	notes             []string // warnings that do not make the run incorrect
}

// checked is one correctness check that ran, and how it failed if it did.
type checked struct {
	name string
	err  error
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is not in the tables of main.go")
}

// put records a metric from its samples: the value is their median.
func (r *report) put(name string, samples []float64, what string) {
	s := summarize(samples)
	r.rows = append(r.rows, row{name: name, unit: unitOf(name), what: what, v: s.Med, s: s})
}

// putQuiet records a timing from its samples: the value is their
// decile on the good side (see quiet); rate_per_s is the one metric
// where higher is better.
func (r *report) putQuiet(name string, samples []float64, what string) {
	r.putValue(name, quiet(samples, name == "rate_per_s"), samples, what+"; quiet decile")
}

// putValue records a metric whose value is not the median of the samples
// printed next to it.
func (r *report) putValue(name string, v float64, samples []float64, what string) {
	r.rows = append(r.rows, row{name: name, unit: unitOf(name), what: what, v: v, s: summarize(samples)})
}

// put1 records a metric that is one number (a count, a ratio of totals).
func (r *report) put1(name string, v float64, what string) { r.put(name, []float64{v}, what) }

// check records that a correctness check ran and, when err is set, that
// it failed.
func (r *report) check(name string, err error) { r.checks = append(r.checks, checked{name, err}) }

func (r *report) correct() bool {
	for _, c := range r.checks {
		if c.err != nil {
			return false
		}
	}
	return true
}

func (r *report) value(name string) (float64, bool) {
	for _, x := range r.rows {
		if x.name == name {
			return x.v, true
		}
	}
	return 0, false
}

func (r *report) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "%-34s %-6s %12s %7s %12s %12s %12s  %s\n", workload, "unit", "value", "n", "q1", "median", "q3", "what")
	for _, x := range r.rows {
		fmt.Fprintf(w, "%-34s %-6s %12.6g %7d %12.6g %12.6g %12.6g  %s\n", x.name, x.unit, x.v, x.s.N, x.s.Q1, x.s.Med, x.s.Q3, x.what)
	}
	for _, c := range r.checks {
		if c.err != nil {
			fmt.Fprintf(w, "CHECK FAILED %s: %v\n", c.name, c.err)
		} else {
			fmt.Fprintf(w, "CHECK ok     %s\n", c.name)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "NOTE %s\n", n)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result builds the contract line: every end-to-end metric of an
// untraced run, every per-layer metric of a traced one.
func (r *report) result(trace bool) (result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.value(d.name)
		if !ok && !trace {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// live is what the signal handler and the panic path must take down.
var live struct {
	sync.Mutex
	fleets []*fleet
}

func track(f *fleet) {
	live.Lock()
	live.fleets = append(live.fleets, f)
	live.Unlock()
}

func closeAll() {
	live.Lock()
	defer live.Unlock()
	for _, f := range live.fleets {
		f.close()
	}
	live.fleets = nil
}

func main() {
	// Children are started from this goroutine only, and carry
	// Pdeathsig, which fires when the forking thread dies: pinning the
	// goroutine to the main thread ties their life to the process.
	runtime.LockOSThread()
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: not pinned to one CPU, timings will be noisier:", err)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "poll_direct | poll_fleet | recover | figures (empty = all four)")
	seed := fs.Uint64("seed", 1, "seeds every run (seed+k) and every experiment")
	seconds := fs.Int("seconds", 30, "size of the fixed work, as the seconds it takes on the reference box in a loud hour")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and <out>/trace.json instead of the end-to-end metrics")
	smoke := fs.Bool("smoke", false, "tiny instances, for go test")
	out := fs.String("out", filepath.Join(buildDir, "out"), "directory for children's stderr, journals and trace.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: usage: go run ./bench [-workload w] [-seed n] [-seconds s] [-trace 0|1] [-smoke] [-out dir]")
		return 2
	}
	todo := workloads[:0:0]
	for _, w := range workloads {
		if *only == "" || *only == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *only)
		return 2
	}

	// Children and temp directories go on every way out: return, failed
	// check, panic (deferred calls run first) and signal.
	defer closeAll()
	sig, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() { signal.Stop(sig); close(done) }()
	go func() {
		select {
		case <-sig:
			closeAll()
			os.Exit(130)
		case <-done:
		}
	}()

	e := env{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, out: *out}
	if slices.ContainsFunc(todo, func(w workload) bool { return w.socket }) {
		bin, err := buildSchedd()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if pid, ok := straySchedd(bin); ok {
			fmt.Fprintf(stderr, "bench: pid %d still runs %s, left behind by an earlier run; stop it first\n", pid, bin)
			return 1
		}
		e.bin = bin
	}
	for _, w := range todo {
		e.rep = &report{}
		err := w.run(&e)
		closeAll()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		e.rep.print(stdout, w.name)
		res, err := e.rep.result(e.trace)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		line, _ := json.Marshal(res)
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}
