// Package exec is the real concurrent runtime: it drives the same
// core.Driver state machines as the event simulator and the scheduler
// service, but with actual worker goroutines performing actual block
// arithmetic (package linalg). It demonstrates that the paper's
// demand-driven strategies — flat and dependency-aware alike — are
// directly executable: the master hands out batches over channels,
// workers compute and report completions, heterogeneity is emulated by
// optional per-worker throttling, and the tests verify numerically
// that every strategy computes the correct product or factorization.
//
// Concurrency model: the master goroutine owns the driver (which
// requires single-threaded access) and steps it through core.Master,
// the same master the simulator's event loop steps; workers communicate
// with it exclusively over channels, so no locks are needed. Every worker
// request carries the completions of its previous batch — the same
// report-then-request protocol the HTTP service speaks — which is what
// lets the DAG kernels release dependent tasks: a worker that finds no
// schedulable task parks until some completion frees one. For GEMM,
// where several tasks update the same C block, each worker accumulates
// into worker-private partial blocks which the master reduces at the
// end — exactly the paper's model of workers returning C contributions
// to the master for final summation.
package exec

import (
	"sync"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/linalg"
	"hetsched/internal/matmul"
	"hetsched/internal/rng"
)

// Options configures a runtime execution.
type Options struct {
	// Workers is the number of worker goroutines; it must equal the
	// driver's P().
	Workers int
	// Speeds optionally emulates heterogeneity: worker w sleeps
	// TaskCost/Speeds[w] after each task. Nil disables throttling.
	Speeds []float64
	// TaskCost is the virtual duration of one task at speed 1; only
	// used when Speeds is non-nil.
	TaskCost time.Duration
}

// Result reports what a runtime execution did.
type Result struct {
	// Blocks is the total communication volume in blocks, as counted
	// by the driver.
	Blocks int
	// BlocksPer and TasksPer are per-worker volumes and task counts.
	BlocksPer []int
	TasksPer  []int
	// Requests is the number of assignments granted.
	Requests int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// grant is the master's answer to a worker request; ok=false tells the
// worker to retire.
type grant struct {
	a  core.Assignment
	ok bool
}

// message is one worker interaction: the completions of the previous
// batch (nil on the first request) plus the request for the next one.
type message struct {
	w         int
	completed []core.Task
}

// runDriver drives drv with opts.Workers goroutines, calling execute
// for every task. execute is called concurrently from different
// workers but sequentially within a worker; its first error is
// returned after the run drains (the run is never aborted mid-flight,
// so the driver's bookkeeping stays consistent).
//
// The master goroutine owns the driver and steps it through a
// core.Master, the simulator's master: it applies a request's
// completions, serves the requester, then retries the parked workers in
// index order. A parked worker simply gets no answer until a retry
// grants or retires it.
func runDriver(drv core.Driver, opts Options, execute func(w int, t core.Task) error) (*Result, error) {
	p := drv.P()
	if opts.Workers != p {
		panic("exec: Workers must match the driver's P()")
	}
	start := time.Now()

	ms := core.NewMaster(drv)
	messages := make(chan message)
	replies := make([]chan grant, p) // worker w's reply slot
	for w := range replies {
		replies[w] = make(chan grant, 1)
	}
	var wg sync.WaitGroup
	var execErr error
	var errOnce sync.Once

	masterDone := make(chan struct{})
	go func() {
		defer close(masterDone)
		live := p
		// answer serves worker w; each worker's assignment gets its own
		// task slice, which it reports back as its completions.
		answer := func(w int) {
			switch a, st := ms.Serve(w, 1, nil); st {
			case core.Granted:
				replies[w] <- grant{a: a, ok: true}
			case core.Retired:
				replies[w] <- grant{}
				live--
			}
		}
		for live > 0 {
			msg := <-messages
			ms.Complete(msg.w, msg.completed)
			answer(msg.w)
			if len(msg.completed) > 0 {
				ms.Retry(answer)
			}
		}
	}()

	throttle := func(w int, tasks int) {
		if opts.Speeds == nil || opts.TaskCost == 0 {
			return
		}
		d := time.Duration(float64(opts.TaskCost) * float64(tasks) / opts.Speeds[w])
		// time.Sleep has ~millisecond granularity on most platforms,
		// which would flatten the emulated heterogeneity for short
		// task costs; spin for the sub-millisecond remainder.
		if d >= 2*time.Millisecond {
			time.Sleep(d - time.Millisecond)
			d = time.Millisecond
		}
		for end := time.Now().Add(d); time.Now().Before(end); {
		}
	}

	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var completed []core.Task
			for {
				messages <- message{w: w, completed: completed}
				g := <-replies[w]
				if !g.ok {
					return
				}
				for _, t := range g.a.Tasks {
					if err := execute(w, t); err != nil {
						// Record the first error but keep reporting
						// completions so the run drains.
						errOnce.Do(func() { execErr = err })
					}
				}
				throttle(w, len(g.a.Tasks))
				completed = g.a.Tasks
			}
		}(w)
	}

	wg.Wait()
	<-masterDone
	return &Result{
		Blocks:    ms.Blocks,
		BlocksPer: ms.BlocksPer,
		TasksPer:  ms.TasksPer,
		Requests:  ms.Requests,
		Elapsed:   time.Since(start),
	}, execErr
}

// run drives a flat scheduler through the generic driver loop; the
// execute callback cannot fail for the flat kernels.
func run(sched core.Scheduler, opts Options, execute func(w int, t core.Task)) *Result {
	res, _ := runDriver(core.NewSchedulerDriver(sched), opts, func(w int, t core.Task) error {
		execute(w, t)
		return nil
	})
	return res
}

// RunGemm executes C = A·B under sched and returns the computed
// blocked matrix. Workers accumulate into private partial C blocks;
// the master-side reduction sums them after all workers retire.
func RunGemm(sched core.Scheduler, a, b *linalg.BlockedMatrix, opts Options) (*linalg.BlockedMatrix, *Result) {
	if a.N != b.N || a.L != b.L {
		panic("exec: matrix shape mismatch")
	}
	n := a.N
	l := a.L
	partials := make([]map[int]*linalg.Block, opts.Workers)
	for w := range partials {
		partials[w] = make(map[int]*linalg.Block)
	}
	res := run(sched, opts, func(w int, t core.Task) {
		i, j, k := matmul.Decode(t, n)
		key := i*n + j
		blk, okBlk := partials[w][key]
		if !okBlk {
			blk = linalg.NewBlock(l)
			partials[w][key] = blk
		}
		linalg.GemmUpdate(blk, a.Block(i, k), b.Block(k, j))
	})

	c := linalg.NewBlockedMatrix(n, l)
	for _, part := range partials {
		for key, blk := range part {
			dst := c.Block(key/n, key%n)
			for idx, v := range blk.Data {
				dst.Data[idx] += v
			}
		}
	}
	return c, res
}

// RunDAG factors the blocked matrix a in place with k's numerics, which
// it must have, on real worker goroutines driven by the generic DAG
// driver. Write safety comes from the coordinator's per-tile write lock
// (one writing task in flight per tile) and from the DAG itself (input
// tiles are final when read); the tests run this under the race
// detector and verify the factors numerically against a.
func RunDAG(k *dag.Kernel, a *linalg.BlockedMatrix, workers int, policy dag.Policy, r *rng.PCG) (*Result, error) {
	drv := dag.NewDriver(k, a.N, workers, policy, r)
	return runDriver(drv, Options{Workers: workers}, func(_ int, ct core.Task) error { return k.Numerics.Apply(ct, a) })
}
