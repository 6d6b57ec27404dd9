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
// -beta sets the two-phase switch parameter (0 takes the analysis'
// optimum for the drawn platform), -gantt renders a flat run as a text
// Gantt chart, and -verify replays a Cholesky or LU schedule on a real
// matrix and prints the residual.
package main

import (
	"flag"
	"fmt"
	"os"

	"hetsched/internal/analysis"
	"hetsched/internal/cholesky"
	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/experiments"
	"hetsched/internal/linalg"
	"hetsched/internal/lu"
	"hetsched/internal/qr"
	"hetsched/internal/service"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
	"hetsched/internal/trace"
)

// kernels holds each kernel's default shape and strategy.
var kernels = map[string]struct {
	n, p     int
	strategy string
}{
	"outer":    {100, 20, "2phases"},
	"matmul":   {40, 100, "2phases"},
	"cholesky": {24, 16, "locality"},
	"lu":       {24, 16, "locality"},
	"qr":       {16, 16, "locality"},
}

// policies maps the DAG kernels' strategy names to ready-task policies.
var policies = map[string]dag.Policy{
	"random":   dag.RandomReady,
	"locality": dag.LocalityReady,
	"critpath": dag.CriticalPathReady,
}

func main() {
	kernel := flag.String("kernel", "outer", "outer | matmul | cholesky | lu | qr")
	opts := experiments.RegisterSimFlags(flag.CommandLine)
	strategy := flag.String("strategy", "", "outer, matmul: random | sorted | dynamic | 2phases (default); cholesky, lu, qr: random | locality (default) | critpath")
	beta := flag.Float64("beta", 0, "two-phase beta (0 = optimize analytically)")
	gantt := flag.Bool("gantt", false, "outer, matmul: render a text Gantt chart of the run")
	verify := flag.Bool("verify", false, "cholesky, lu: replay the schedule on a real matrix (tile size 4)")
	flag.Parse()

	def, ok := kernels[*kernel]
	if !ok {
		fail(2, "unknown kernel %q", *kernel)
	}
	if opts.N == 0 {
		opts.N = def.n
	}
	if opts.P == 0 {
		opts.P = def.p
	}
	if *strategy == "" {
		*strategy = def.strategy
	}
	flat := *kernel == "outer" || *kernel == "matmul"
	switch {
	case *gantt && !flat:
		fail(2, "-gantt needs -kernel outer or matmul")
	case *verify && *kernel != "cholesky" && *kernel != "lu":
		fail(2, "-verify needs -kernel cholesky or lu")
	}
	if flat {
		simulateFlat(*kernel, *strategy, *beta, *gantt, opts)
		return
	}
	pol, ok := policies[*strategy]
	if !ok {
		fail(2, "unknown strategy %q", *strategy)
	}
	simulateDAG(*kernel, pol, *verify, opts)
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sim: "+format+"\n", args...)
	os.Exit(code)
}

// simulateFlat runs an outer or matmul strategy through sim.RunObserved.
func simulateFlat(kernel, strategy string, beta float64, gantt bool, opts *experiments.SimFlags) {
	n, p := opts.N, opts.P
	root, init, rs := opts.Platform()
	lowerBound, optimalBeta := analysis.LowerBoundOuter, analysis.OptimalBetaOuter
	if kernel == "matmul" {
		lowerBound, optimalBeta = analysis.LowerBoundMatrix, analysis.OptimalBetaMatrix
	}
	lb := lowerBound(rs, n)
	schedRNG := root.Split()
	if strategy == "2phases" && beta == 0 {
		beta, _ = optimalBeta(rs, n)
		fmt.Printf("analysis-optimal beta* = %.4f\n", beta)
	}
	drv, err := service.BuildDriver(&service.CreateRunRequest{Kernel: kernel, Strategy: strategy, N: n, P: p, Beta: beta}, schedRNG)
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

// simulateDAG runs a DAG kernel through its Simulate, and with verify
// replays the schedule on a real matrix.
func simulateDAG(kernel string, pol dag.Policy, verify bool, opts *experiments.SimFlags) {
	n := opts.N
	root, init, _ := opts.Platform()
	model := speeds.NewFixed(init)
	var tasks, blocks int
	var makespan, work, cp, wait float64
	var replay func(*linalg.BlockedMatrix) error
	switch kernel {
	case "cholesky":
		m := cholesky.Simulate(n, pol, model, root.Split())
		tasks, blocks, makespan, work, cp, wait = cholesky.TaskCount(n), m.Blocks, m.Makespan, m.WorkBound, m.CPBound, m.WaitTime
		replay = func(a *linalg.BlockedMatrix) error { return cholesky.Replay(m.Schedule, a) }
	case "lu":
		m := lu.Simulate(n, pol, model, root.Split())
		tasks, blocks, makespan, work, cp, wait = lu.TaskCount(n), m.Blocks, m.Makespan, m.WorkBound, m.CPBound, m.WaitTime
		replay = func(a *linalg.BlockedMatrix) error { return lu.Replay(m.Schedule, a) }
	default:
		m := qr.Simulate(n, pol, model, root.Split())
		tasks, blocks, makespan, work, cp, wait = qr.TaskCount(n), m.Blocks, m.Makespan, m.WorkBound, m.CPBound, m.WaitTime
	}
	fmt.Printf("policy              %s\n", pol)
	fmt.Printf("tasks               %d\n", tasks)
	fmt.Printf("communication       %d tile transfers\n", blocks)
	fmt.Printf("makespan            %.4f time units\n", makespan)
	fmt.Printf("work bound          %.4f (efficiency %.3f)\n", work, work/makespan)
	fmt.Printf("critical-path bound %.4f\n", cp)
	fmt.Printf("total wait time     %.4f worker-time units\n", wait)
	if !verify {
		return
	}

	const l = 4
	fill, residual, label := linalg.RandomSPD, linalg.CholeskyResidual, "|A − L·Lᵀ|"
	if kernel == "lu" {
		fill, residual, label = linalg.RandomDominant, linalg.LUResidual, "|A − L·U|"
	}
	a := linalg.NewBlockedMatrix(n, l)
	fill(a, root.Split())
	factored := linalg.NewBlockedMatrix(n, l)
	for i, blk := range a.Blocks {
		copy(factored.Blocks[i].Data, blk.Data)
	}
	if err := replay(factored); err != nil {
		fail(1, "replay: %v", err)
	}
	fmt.Printf("numeric residual    %.3e (%s)\n", residual(a, factored), label)
}
