// Package sim is the event-driven heterogeneous-platform simulator —
// the paper's "ad-hoc event based simulation tool" (§3.4).
//
// Semantics: p processors, processor k performing Speed(k) elementary
// block tasks per time unit. Communication is assumed perfectly
// overlapped with computation (the paper's standing assumption), so
// transfers cost no time and the simulator only accounts their
// volume. Processors are demand-driven: whenever one finishes its
// current batch it reports it to the master (core.Master) and requests
// work, and the batch of tasks it receives occupies it for Σ 1/speed
// time units (speed re-evaluated after every task so that dynamically
// drifting speed models are honored). Run, RunObserved and RunDriver
// share one event loop; RunBandwidth adds a link model of its own.
package sim

import (
	"fmt"
	"math"

	"hetsched/internal/core"
	"hetsched/internal/speeds"
)

// Metrics aggregates the outcome of one simulated run.
type Metrics struct {
	// Blocks is the total number of data blocks shipped by the master
	// (the paper's communication volume).
	Blocks int
	// BlocksPer is the per-processor communication volume.
	BlocksPer []int
	// TasksPer is the number of tasks each processor executed.
	TasksPer []int
	// FinishPer is the virtual time at which each processor completed
	// its last non-empty batch.
	FinishPer []float64
	// Makespan is the maximum of FinishPer.
	Makespan float64
	// WaitTime is the total time processors spent parked, waiting for a
	// schedulable task (DAG kernels; after-the-end idling excluded).
	WaitTime float64
	// Requests is the number of master interactions (assignments
	// granted, including empty ones).
	Requests int
	// Phase1Tasks is the number of tasks allocated in phase 1 when the
	// scheduler is two-phase, -1 otherwise.
	Phase1Tasks int
	// Schedule is the completion order of the tasks, a valid sequential
	// replay order for numeric verification. Only RunDriver records it.
	Schedule []core.Task
}

// Imbalance returns the maximum over processors of the relative
// deviation between the work a processor performed and the work an
// ideal speed-proportional split would have given it. With the
// demand-driven model this stays small (at most about one batch).
func (m *Metrics) Imbalance(model speeds.Model) float64 {
	total := 0
	for _, t := range m.TasksPer {
		total += t
	}
	if total == 0 {
		return 0
	}
	s := model.Initial()
	rs := speeds.Relative(s)
	worst := 0.0
	for k, t := range m.TasksPer {
		ideal := rs[k] * float64(total)
		if ideal == 0 {
			continue
		}
		dev := math.Abs(float64(t)-ideal) / ideal
		if dev > worst {
			worst = dev
		}
	}
	return worst
}

// event is a processor becoming idle at a given virtual time. The batch
// it completes lives beside the queue, in the loop's per-processor slot,
// which keeps an event at 24 bytes.
type event struct {
	t    float64
	proc int
	seq  uint64 // tie-breaker: FIFO among equal times, deterministic
}

func (e event) before(o event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// Observation is passed to a RunObserved callback after every granted
// assignment. Assignment.Tasks aliases a per-processor buffer the
// engine reuses, so it is only valid for the duration of the callback;
// copy it to retain it.
type Observation struct {
	// Time is the virtual time at which the assignment was granted
	// (the requesting processor's idle instant).
	Time float64
	// Proc is the requesting processor.
	Proc int
	// Assignment is what the master granted.
	Assignment core.Assignment
}

// Run simulates sched to exhaustion on a platform described by model.
// The scheduler's P() must match model.P().
func Run(sched core.Scheduler, model speeds.Model) *Metrics {
	return RunObserved(sched, model, nil)
}

// RunObserved is Run with a per-assignment observer callback, used by
// trace recording and by the mean-field convergence experiment. A nil
// observer is allowed.
func RunObserved(sched core.Scheduler, model speeds.Model, observe func(Observation)) *Metrics {
	return run(core.NewSchedulerDriver(sched), model, observe, false)
}

// RunDriver simulates drv to exhaustion on a platform described by
// model, recording the completion-order Schedule. Per-task durations
// come from core.TaskCoster when the driver implements it (cost/speed
// time units per task, the DAG kernels' GEMM-equivalent accounting) and
// are one elementary block task otherwise.
func RunDriver(drv core.Driver, model speeds.Model) *Metrics {
	return run(drv, model, nil, true)
}

// run is the simulator's one event loop. Every processor starts idle at
// time 0. When a processor becomes idle, the core.Master applies the
// batch it completed, serves it, and — after a completion — retries the
// parked processors in index order. A granted batch occupies its
// processor for Σ cost/speed, the speed re-sampled after every task so
// that dynamic speed models drift exactly once per task, as in the
// paper's dyn.x scenarios.
//
// Each processor's batch slot holds the batch it is computing; at its
// completion event the slot is reported to the driver and then handed
// back as the buffer of the processor's next request, so the loop runs
// allocation-free.
func run(drv core.Driver, model speeds.Model, observe func(Observation), record bool) *Metrics {
	p := drv.P()
	if p != model.P() {
		panic(fmt.Sprintf("sim: driver has %d workers, model %d", p, model.P()))
	}
	ms := core.NewMaster(drv)
	m := &Metrics{FinishPer: make([]float64, p), Phase1Tasks: -1}
	if record {
		m.Schedule = make([]core.Task, 0, drv.Total())
	}
	coster, costed := drv.(core.TaskCoster)
	batch := make([]core.TaskBuf, p)
	idleSince := make([]float64, p)

	q := newProcQueue(p)
	seq := uint64(p)

	var now float64
	// serve answers processor w at time now, timing a granted batch.
	serve := func(w int) core.Status {
		a, st := ms.Serve(w, 1, batch[w])
		if st != core.Granted {
			return st
		}
		batch[w] = a.Tasks
		if observe != nil {
			observe(Observation{Time: now, Proc: w, Assignment: a})
		}
		t := now
		for _, task := range a.Tasks {
			s := model.Speed(w)
			if !(s > 0) {
				panic("sim: non-positive speed")
			}
			if costed {
				t += coster.TaskCost(task) / s
			} else {
				t += 1 / s
			}
			model.OnTaskDone(w)
		}
		q.set(event{t: t, proc: w, seq: seq})
		seq++
		return core.Granted
	}
	retry := func(w int) {
		if serve(w) == core.Granted {
			m.WaitTime += now - idleSince[w]
		}
	}

	for e := q.top(); e.proc >= 0; e = q.top() {
		now = e.t
		done := batch[e.proc]
		if len(done) > 0 {
			if record {
				m.Schedule = append(m.Schedule, done...)
			}
			ms.Complete(e.proc, done)
			m.FinishPer[e.proc] = now
			if now > m.Makespan {
				m.Makespan = now
			}
		}
		// A processor that is not granted leaves the queue before the
		// retry, which may serve it afresh.
		if st := serve(e.proc); st != core.Granted {
			if st == core.Parked {
				idleSince[e.proc] = now
			}
			q.remove(e.proc)
		}
		if len(done) > 0 {
			ms.Retry(retry)
		}
	}

	if drv.Remaining() != 0 {
		panic(fmt.Sprintf("sim: run ended with %d of %d tasks unfinished",
			drv.Remaining(), drv.Total()))
	}
	m.Blocks, m.BlocksPer, m.TasksPer, m.Requests = ms.Blocks, ms.BlocksPer, ms.TasksPer, ms.Requests
	if po, ok := drv.(core.PhaseObserver); ok {
		m.Phase1Tasks = po.Phase1Tasks()
	}
	return m
}
