// Command sim runs one simulation of any kernel on a heterogeneous
// platform and prints its metrics: communication against the lower
// bound and load balance for the paper's flat kernels, communication
// and efficiency for the DAG kernels:
//
//	sim -kernel outer -n 100 -p 20 -strategy 2phases -seed 7
//	sim -kernel matmul -n 40 -p 100 -strategy 2phases -seed 7
//	sim -kernel cholesky -n 24 -p 16 -strategy locality -seed 7
//	sim -kernel lu -n 16 -p 16 -strategy critpath -seed 7 -verify
//	sim -kernel qr -n 16 -p 16 -strategy locality -seed 7
//
// -beta sets the switch parameter of a flat 2phases run (0 takes the
// analysis' optimum for the drawn platform), -gantt renders a flat run
// as a text Gantt chart, and -verify replays a Cholesky or LU schedule
// on a real matrix and prints the residual.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"strings"

	"hetsched/internal/core"
	"hetsched/internal/experiments"
	"hetsched/internal/linalg"
	"hetsched/internal/service"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
	"hetsched/internal/trace"
)

// shapes holds each kernel's default n and p.
var shapes = map[string]struct{ n, p int }{
	"outer":    {100, 20},
	"matmul":   {40, 100},
	"cholesky": {24, 16},
	"lu":       {24, 16},
	"qr":       {16, 16},
}

func main() {
	var kernels, strategies []string
	for _, k := range service.Kernels {
		kernels = append(kernels, k.Name)
		var names []string
		for _, s := range k.Strategies {
			names = append(names, s.Name)
		}
		strategies = append(strategies, fmt.Sprintf("%s: %s (default %s)", k.Name, strings.Join(names, " | "), k.Default))
	}
	kernel := flag.String("kernel", "outer", strings.Join(kernels, " | "))
	opts := experiments.RegisterSimFlags(flag.CommandLine)
	strategy := flag.String("strategy", "", strings.Join(strategies, "; "))
	beta := flag.Float64("beta", 0, "two-phase beta (0 = optimize analytically)")
	gantt := flag.Bool("gantt", false, "outer, matmul: render a text Gantt chart of the run")
	verify := flag.Bool("verify", false, "cholesky, lu: replay the schedule on a real matrix (tile size 4)")
	flag.Parse()

	k := service.LookupKernel(*kernel)
	if k == nil {
		fail(2, "unknown kernel %q", *kernel)
	}
	var err error
	if opts.N, opts.P, err = shape(k.Name, opts.N, opts.P); err != nil {
		fail(2, "%v", err)
	}
	*strategy = cmp.Or(*strategy, k.Default)
	flat := k.DAG == nil
	switch {
	case *gantt && !flat:
		fail(2, "-gantt needs -kernel outer or matmul")
	case *verify && (flat || k.DAG.Numerics == nil):
		fail(2, "-verify needs -kernel cholesky or lu")
	case *beta != 0 && (!flat || *strategy != "2phases"):
		fail(2, "-beta needs -kernel outer or matmul with -strategy 2phases")
	}
	if flat {
		simulateFlat(k, *strategy, *beta, *gantt, opts)
		return
	}
	simulateDAG(k, *strategy, *verify, opts)
}

// shape returns the n and p to run kernel on: those given, and the
// kernel's defaults for the ones left 0. A kernel without defaults
// needs both given.
func shape(kernel string, n, p int) (int, int, error) {
	def, ok := shapes[kernel]
	if !ok && (n == 0 || p == 0) {
		return 0, 0, fmt.Errorf("-kernel %s has no default shape: give -n and -p", kernel)
	}
	return cmp.Or(n, def.n), cmp.Or(p, def.p), nil
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sim: "+format+"\n", args...)
	os.Exit(code)
}

// simulateFlat runs a flat kernel's strategy through sim.RunObserved.
func simulateFlat(k *service.Kernel, strategy string, beta float64, gantt bool, opts *experiments.SimFlags) {
	n, p := opts.N, opts.P
	root, init, rs := opts.Platform()
	lb := k.Flat.LowerBound(rs, n)
	schedRNG := root.Split()
	if strategy == "2phases" && beta == 0 {
		beta, _ = k.Flat.OptimalBeta(rs, n)
		fmt.Printf("analysis-optimal beta* = %.4f\n", beta)
	}
	drv, err := service.BuildDriver(&service.CreateRunRequest{Kernel: k.Name, Strategy: strategy, N: n, P: p, Beta: beta}, schedRNG)
	if err != nil {
		fail(2, "%v", err)
	}
	sched := drv.(*core.SchedulerDriver).Unwrap()

	model := speeds.NewFixed(init)
	var rec *trace.Recorder
	var observe func(sim.Observation)
	if gantt {
		rec = trace.NewRecorder(model)
		observe = rec.Observe
	}
	m := sim.RunObserved(sched, model, observe)
	fmt.Printf("strategy            %s\n", sched.Name())
	fmt.Printf("tasks               %d\n", sched.Total())
	fmt.Printf("communication       %d blocks\n", m.Blocks)
	fmt.Printf("lower bound         %.1f blocks\n", lb)
	fmt.Printf("normalized comm     %.4f\n", float64(m.Blocks)/lb)
	fmt.Printf("master requests     %d\n", m.Requests)
	fmt.Printf("makespan            %.4f time units\n", m.Makespan)
	fmt.Printf("load imbalance      %.4f (max relative deviation)\n", m.Imbalance(model))
	if m.Phase1Tasks >= 0 {
		fmt.Printf("phase-1 tasks       %d (%.2f%%)\n", m.Phase1Tasks,
			100*float64(m.Phase1Tasks)/float64(sched.Total()))
	}
	if rec != nil {
		fmt.Println()
		fmt.Print(rec.Trace().Gantt(72))
	}
}

// simulateDAG runs a DAG kernel through sim.RunDriver, and with verify
// replays the schedule on a real matrix.
func simulateDAG(k *service.Kernel, strategy string, verify bool, opts *experiments.SimFlags) {
	n := opts.N
	root, init, _ := opts.Platform()
	drv, err := service.BuildDriver(&service.CreateRunRequest{Kernel: k.Name, Strategy: strategy, N: n, P: opts.P}, root.Split())
	if err != nil {
		fail(2, "%v", err)
	}
	m := sim.RunDriver(drv, speeds.NewFixed(init))

	sumSpeed, maxSpeed := 0.0, 0.0
	for _, s := range init {
		sumSpeed += s
		maxSpeed = max(maxSpeed, s)
	}
	work, cp := k.TotalWork(n)/sumSpeed, k.DAG.CriticalPath(n)/maxSpeed
	fmt.Printf("policy              %s\n", strings.TrimPrefix(drv.Name(), k.DAG.Name))
	fmt.Printf("tasks               %d\n", drv.Total())
	fmt.Printf("communication       %d tile transfers\n", m.Blocks)
	fmt.Printf("makespan            %.4f time units\n", m.Makespan)
	fmt.Printf("work bound          %.4f (efficiency %.3f)\n", work, work/m.Makespan)
	fmt.Printf("critical-path bound %.4f\n", cp)
	fmt.Printf("total wait time     %.4f worker-time units\n", m.WaitTime)
	if !verify {
		return
	}

	num := k.DAG.Numerics
	a := linalg.NewBlockedMatrix(n, 4)
	num.Fill(a, root.Split())
	factored := a.Clone()
	if err := k.DAG.Replay(m.Schedule, factored); err != nil {
		fail(1, "replay: %v", err)
	}
	fmt.Printf("numeric residual    %.3e (%s)\n", num.Residual(a, factored), num.Label)
}
