package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"time"

	"hetsched/internal/analysis"
	"hetsched/internal/core"
	"hetsched/internal/experiments"
	"hetsched/internal/service"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

// The figures workload: the paper's simulators, in-process. Strategy,
// simulator and analysis code does all the work here and about 2% of it
// in a socket poll, so an optimisation there shows here and is predicted
// flat on the poll workloads.

// suiteIDs is one pass of the paper suite at full scale, about 1.2 s on
// the reference box. The ids are listed, not read from the registry, so
// that a new experiment does not silently change what suite time means.
// Left out are the twelve most expensive (fig4, fig5, fig7 to fig11,
// sec36, abl-lu, abl-cholesky, abl-overlap, abl-mapreduce: over 9/10 of
// the registry's time between them), because a pass has to be short
// enough for -seconds to hold several. Parts (b) and (c) run the matrix
// and DAG code the pass leaves out, at the paper's scale.
var suiteIDs = []string{
	"fig1", "fig2", "fig6",
	"abl-static", "abl-phase2", "abl-ode", "abl-robust",
	"abl-ode-matrix", "abl-perproc", "abl-switchtime", "abl-qr",
}

var smokeSuiteIDs = []string{"fig1", "abl-qr"}

// suitePass runs every listed experiment once and returns what each
// took, in ms. With check set it also checks what comes back: every
// series non-empty, every point finite. (The warm-up pass is not
// checked: in Quick mode abl-switchtime reports NaN for a processor that
// never reaches its switch point, on seeds 3, 7, 11, 12 among the first
// fourteen.)
func suitePass(ids []string, cfg experiments.Config, check bool) ([]float64, error) {
	ms := make([]float64, len(ids))
	for i, id := range ids {
		exp, ok := experiments.Registry[id]
		if !ok {
			return nil, fmt.Errorf("experiment %s is not in the registry", id)
		}
		start := time.Now()
		res := exp.Run(cfg)
		ms[i] = float64(time.Since(start)) / 1e6
		if !check {
			continue
		}
		if len(res.Series) == 0 {
			return nil, fmt.Errorf("experiment %s returned no series", id)
		}
		for _, s := range res.Series {
			if len(s.Points) == 0 {
				return nil, fmt.Errorf("experiment %s: series %q is empty", id, s.Name)
			}
			for _, pt := range s.Points {
				if math.IsNaN(pt.X+pt.Y) || math.IsInf(pt.X+pt.Y, 0) {
					return nil, fmt.Errorf("experiment %s: series %q has a non-finite point", id, s.Name)
				}
			}
		}
	}
	return ms, nil
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// simConfig is one configuration of parts (b) and (c): a simulation at
// the paper's large scale, timed whole.
type simConfig struct {
	name     string // the suffix of its per-layer metric
	flat     bool
	kernel   string
	strategy string
	n, p     int
	// drawn from -seed once, so that every round simulates the same
	// input and a configuration's samples compare
	speeds []float64
	seed   uint64
}

func simConfigs(smoke bool, r *rand.Rand) []simConfig {
	on, mn, pf := 1000, 100, 100
	cn, ln, qn, pd := 48, 36, 36, 16
	if smoke {
		on, mn, pf = 60, 12, 10
		cn, ln, qn, pd = 8, 6, 6, 4
	}
	var cs []simConfig
	for _, k := range []struct {
		kernel string
		n      int
	}{{"outer", on}, {"matmul", mn}} {
		for _, st := range []string{"random", "dynamic", "2phases"} {
			cs = append(cs, simConfig{name: k.kernel + "-" + st, flat: true, kernel: k.kernel, strategy: st, n: k.n, p: pf})
		}
	}
	cs = append(cs,
		simConfig{name: "cholesky", kernel: "cholesky", strategy: "locality", n: cn, p: pd},
		simConfig{name: "lu", kernel: "lu", strategy: "locality", n: ln, p: pd},
		simConfig{name: "qr", kernel: "qr", strategy: "locality", n: qn, p: pd})
	// Speeds uniform in [10,100), the paper's default.
	for i := range cs {
		cs[i].speeds = make([]float64, cs[i].p)
		for k := range cs[i].speeds {
			cs[i].speeds[k] = 10 + 90*r.Float64()
		}
		cs[i].seed = r.Uint64()
	}
	return cs
}

// simOutcome is what one simulation reports.
type simOutcome struct {
	wall   time.Duration
	tasks  int
	ratio  float64 // flat: blocks shipped / the analysis lower bound
	theory float64 // flat 2phases: the analysis' predicted ratio at the beta used
}

// runSim builds the scheduler the way the service does, from a run
// request, and times one simulation of c on its platform. The two-phase
// strategies get the analysis' optimal beta for the platform, the
// paper's tuning.
func runSim(c simConfig) (simOutcome, error) {
	init, total := c.speeds, sum(c.speeds)
	rs := make([]float64, c.p)
	for k := range rs {
		rs[k] = init[k] / total
	}
	model := speeds.NewFixed(init)
	req := service.CreateRunRequest{Kernel: c.kernel, Strategy: c.strategy, N: c.n, P: c.p, Seed: c.seed}
	var out simOutcome
	var lb float64
	// Tuning and building the scheduler are timed too: a figure pays
	// them on every replication.
	start := time.Now()
	switch {
	case !c.flat:
	case c.kernel == "outer":
		lb = analysis.LowerBoundOuter(rs, c.n)
		if c.strategy == "2phases" {
			req.Beta, out.theory = analysis.OptimalBetaOuter(rs, c.n)
		}
	default:
		lb = analysis.LowerBoundMatrix(rs, c.n)
		if c.strategy == "2phases" {
			req.Beta, out.theory = analysis.OptimalBetaMatrix(rs, c.n)
		}
	}
	drv, err := service.NewDriver(&req)
	if err != nil {
		return out, err
	}
	if !c.flat {
		sim.RunDriver(drv, model)
		return simOutcome{wall: time.Since(start), tasks: drv.Total()}, nil
	}
	sd, ok := drv.(*core.SchedulerDriver)
	if !ok {
		return out, fmt.Errorf("the %s driver is a %T, not a *core.SchedulerDriver", c.kernel, drv)
	}
	m := sim.Run(sd.Unwrap(), model)
	out.wall = time.Since(start)
	out.tasks = drv.Total()
	out.ratio = float64(m.Blocks) / lb
	return out, nil
}

// rounds is how often the workload runs everything it times: a round is
// a pass of the suite (a), every flat simulation (b) and every DAG
// simulation (c), about 2.2 s on the reference box while it is quiet. Taking each
// configuration once per round spreads its samples over the whole run.
func (e *env) rounds() int {
	if e.smoke {
		return 2
	}
	return max(3, int(math.Round(0.27*float64(e.seconds))))
}

func figures(e *env) error {
	rep := e.rep
	ids, cfg := suiteIDs, experiments.Config{Seed: e.seed, Workers: 1}
	if e.smoke {
		ids, cfg.Quick = smokeSuiteIDs, true
	}

	// Set-up: one Quick pass, which pages the code in and grows the heap
	// to its working size, so that the first timed pass is not the slow
	// one. It is repeated after every round, which spreads its times
	// over the run like every other unit's.
	var setupSecs []float64
	setup := func() error {
		quick := cfg
		quick.Quick = true
		ms, err := suitePass(ids, quick, false)
		setupSecs = append(setupSecs, sum(ms)/1e3)
		return err
	}
	if err := setup(); err != nil {
		return err
	}

	configs := simConfigs(e.smoke, rand.New(rand.NewPCG(e.seed, 0)))
	suite := make([][]float64, len(ids)) // ms per experiment, one per round
	walls := make([][]float64, len(configs))
	outcome := make([]simOutcome, len(configs))
	var suiteErr error
	for round := 0; round < e.rounds(); round++ {
		// (a) the suite, a pass per round.
		ms, err := suitePass(ids, cfg, !e.smoke)
		rep.attempted += len(ids)
		if err != nil {
			rep.failed++
			suiteErr = err
			break
		}
		for i := range ids {
			suite[i] = append(suite[i], ms[i])
		}
		// (b) flat and (c) DAG simulations.
		for i, c := range configs {
			o, err := runSim(c)
			if err != nil {
				return err
			}
			rep.attempted++
			walls[i] = append(walls[i], float64(o.wall))
			outcome[i] = o
		}
		if err := setup(); err != nil {
			return err
		}
	}
	rep.putQuiet("setup_s", setupSecs, "one Quick pass of the suite as warm-up")
	rep.check("every series non-empty and finite", suiteErr)
	if suiteErr != nil {
		return nil
	}

	// A part's time is the sum of its members' quiet times: a disturbed
	// stretch of the run then costs the members it hit one sample each,
	// not the whole part a sample.
	quietSum := func(samples [][]float64) float64 {
		t := 0.0
		for _, v := range samples {
			t += quiet(v, false)
		}
		return t
	}
	rep.put1("slow_op_ms", quietSum(suite), fmt.Sprintf("one pass of the %d-experiment suite, Workers=1: sum of the experiments' quiet deciles over %d passes", len(ids), e.rounds()))

	var flatTasks float64
	var flatWalls, dagWalls [][]float64
	var ratios, theoryGap []float64
	var boundErr, orderErr error
	for i, c := range configs {
		o := outcome[i]
		perTask := scale(walls[i], 1/float64(o.tasks))
		if !c.flat {
			dagWalls = append(dagWalls, walls[i])
			rep.put("dag.ns_per_task."+c.name, perTask,
				fmt.Sprintf("sim.RunDriver %s n=%d p=%d locality, wall / %d tasks", c.name, c.n, c.p, o.tasks))
			continue
		}
		flatTasks += float64(o.tasks)
		flatWalls = append(flatWalls, walls[i])
		rep.put("sim.ns_per_task."+c.name, perTask,
			fmt.Sprintf("sim.Run %s n=%d p=%d, wall / %d tasks", c.name, c.n, c.p, o.tasks))
		if o.ratio < 1 && boundErr == nil {
			boundErr = fmt.Errorf("%s shipped %.3f of the lower bound", c.name, o.ratio)
		}
		if c.strategy == "2phases" {
			ratios = append(ratios, o.ratio)
			theoryGap = append(theoryGap, math.Abs(o.ratio-o.theory)/o.theory)
			// configs are ordered random, dynamic, 2phases per kernel
			rnd, dyn := outcome[i-2].ratio, outcome[i-1].ratio
			if !(rnd > dyn && dyn > o.ratio) && orderErr == nil {
				orderErr = fmt.Errorf("%s: comm random %.3f, dynamic %.3f, 2phases %.3f", c.kernel, rnd, dyn, o.ratio)
			}
		}
	}
	rep.check("communication volume >= the lower bound", boundErr)
	rep.check("communication ordered random > dynamic > 2phases", orderErr)
	var theoryErr error
	if gap := mean(theoryGap); gap > 0.05 && !e.smoke {
		theoryErr = fmt.Errorf("simulated 2phases volume is %.1f%% off analysis.Ratio* on average", gap*100)
	}
	rep.check("simulated 2phases volume within 5% of the analysis at the beta used", theoryErr)

	rep.put1("rate_per_s", flatTasks/(quietSum(flatWalls)/1e9), "flat simulations: tasks / sum of the configurations' quiet deciles")
	rep.put1("op_ms", quietSum(dagWalls)/1e6, "DAG simulations: sum of the configurations' quiet deciles")
	rep.put1("comm_ratio", mean(ratios), "mean over the flat 2phases simulations of blocks / analysis.LowerBound*")
	mb, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	rep.put1("peak_rss_mb", mb, "this process's VmHWM: the simulators run in-process")

	if e.trace {
		return traceFigures(e, ids, cfg, quietSum(suite))
	}
	return nil
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// traceFigures is the traced part of the figures workload: the bare
// drivers of all five kernels (d0), the analysis' optimiser, and what the
// suite gains from its second worker.
func traceFigures(e *env, ids []string, cfg experiments.Config, suiteMS float64) error {
	rep := e.rep
	tr := newTracer()
	rep.put1("trace.overhead_ns", spanOverhead(), "two clock reads and an append")
	n, p := e.shape()
	specs := []runSpec{
		{ID: "outer", Kernel: "outer", Strategy: pollStrategy, N: n, P: p},
		{ID: "matmul", Kernel: "matmul", Strategy: pollStrategy, N: 100, P: 64},
		{ID: "cholesky", Kernel: "cholesky", Strategy: "locality", N: 64, P: 16},
		{ID: "lu", Kernel: "lu", Strategy: "locality", N: 48, P: 16},
		{ID: "qr", Kernel: "qr", Strategy: "locality", N: 48, P: 16},
	}
	var all ledger
	for _, spec := range specs {
		if e.smoke {
			spec.N = min(spec.N, 12)
		}
		spec.Seed, spec.Batch = e.seed, pollBatch
		drv, err := newDriver(spec)
		if err != nil {
			return err
		}
		id := "d0." + spec.Kernel
		led, err := tr.replay(spec, drv.Total(), []depth{{name: "core", id: id, poll: driverPoll(drv)}})
		if err != nil {
			return err
		}
		all.Polls += led.Polls
		all.Tasks += led.Tasks
		all.Blocks += led.Blocks
		all.Waits += led.Waits
		rep.put("core.step_ns."+spec.Kernel, tr.durs[id],
			fmt.Sprintf("d0: bare %s driver n=%d p=%d, Complete+Next per poll", spec.Kernel, spec.N, spec.P))
	}
	rep.put1("core.tasks_per_poll", float64(all.Tasks)/float64(all.Polls), "d0 scripts of the five kernels")
	rep.put1("core.blocks_per_task", float64(all.Blocks)/float64(all.Tasks), "d0 scripts of the five kernels")
	rep.put1("core.wait_ratio", float64(all.Waits)/float64(all.Polls), "wait answers / polls, d0 scripts of the five kernels")

	rs := make([]float64, 100)
	for k := range rs {
		rs[k] = float64(10+k) / (100*10 + 99*50) // speeds 10, 11, ... 109
	}
	rep.put("analysis.optimal_beta_ns.outer", timeCalls(20, 5, func() { analysis.OptimalBetaOuter(rs, 1000) }), "OptimalBetaOuter, p=100 n=1000")
	rep.put("analysis.optimal_beta_ns.matmul", timeCalls(20, 5, func() { analysis.OptimalBetaMatrix(rs, 100) }), "OptimalBetaMatrix, p=100 n=100")

	// The benchmark runs on one CPU, so a second worker has no core to
	// itself and this reads about 1: what it shows is what the worker
	// pool costs.
	pair := cfg
	pair.Workers = 2
	ms, err := suitePass(ids, pair, false)
	if err != nil {
		return err
	}
	rep.put1("experiments.parallel_speedup", suiteMS/sum(ms), "suite pass at Workers=1 / at Workers=2, both on one CPU")
	return tr.write(e.out)
}
