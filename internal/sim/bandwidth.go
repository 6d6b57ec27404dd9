package sim

import (
	"fmt"
	"math"

	"hetsched/internal/core"
	"hetsched/internal/speeds"
)

// Bandwidth-limited simulation. The main engine (Run) adopts the
// paper's standing assumption that communications overlap perfectly
// with computations; the paper notes that deciding how many blocks to
// upload in advance "would require to introduce a communication model
// and a topology, what is out of the scope of this paper". This file
// supplies that model as an extension: the master has a single
// outgoing link of finite bandwidth (blocks per time unit), transfers
// serialize on it, and each worker keeps up to `lookahead` prefetched
// assignments in flight so transfers can overlap its current
// computation.

// BandwidthMetrics extends Metrics with stall accounting.
type BandwidthMetrics struct {
	Metrics
	// StallTime is the total time workers spent idle waiting for data
	// (excluding the initial fetch and after-the-end idling).
	StallTime float64
	// LinkBusy is the total time the master link spent transferring.
	LinkBusy float64
}

type bwEventKind uint8

const (
	evArrival bwEventKind = iota
	evCompute
)

type bwEvent struct {
	t    float64
	kind bwEventKind
	w    int
	a    core.Assignment
	seq  uint64
}

func (e bwEvent) before(o bwEvent) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// RunBandwidth simulates sched on model with a master link of the
// given bandwidth (blocks per time unit; math.Inf(1) recovers the
// overlap assumption) and a per-worker prefetch window of lookahead
// assignments beyond the one being computed (0 = fully synchronous
// fetch-then-compute).
func RunBandwidth(sched core.Scheduler, model speeds.Model, bandwidth float64, lookahead int) *BandwidthMetrics {
	p := sched.P()
	if p != model.P() {
		panic(fmt.Sprintf("sim: scheduler has %d workers, model %d", p, model.P()))
	}
	if bandwidth <= 0 {
		panic("sim: non-positive bandwidth")
	}
	if lookahead < 0 {
		panic("sim: negative lookahead")
	}

	drv := core.NewSchedulerDriver(sched)
	ms := core.NewMaster(drv)
	m := &BandwidthMetrics{Metrics: Metrics{FinishPer: make([]float64, p)}}

	var (
		q          eventHeap[bwEvent]
		seq        uint64
		linkFree   float64
		inFlight   = make([]int, p)               // fetches not yet arrived
		queued     = make([][]core.Assignment, p) // arrived, not yet computed
		computing  = make([]bool, p)
		idleSince  = make([]float64, p)
		everWorked = make([]bool, p)
	)

	// request asks the master for one assignment for w and schedules its
	// arrival on the shared link; returns false when the scheduler is
	// drained. Several of w's assignments may be in flight, so each gets
	// a fresh task slice.
	request := func(w int, now float64) bool {
		a, st := ms.Serve(w, 1, nil)
		if st != core.Granted {
			return false
		}
		start := math.Max(linkFree, now)
		dur := 0.0
		if !math.IsInf(bandwidth, 1) {
			dur = float64(a.Blocks) / bandwidth
		}
		linkFree = start + dur
		m.LinkBusy += dur
		inFlight[w]++
		q.push(bwEvent{t: linkFree, kind: evArrival, w: w, a: a, seq: seq})
		seq++
		return true
	}

	// fill tops up worker w's pipeline to lookahead+1 outstanding
	// assignments (computing + queued + in flight).
	fill := func(w int, now float64) {
		for {
			outstanding := inFlight[w] + len(queued[w])
			if computing[w] {
				outstanding++
			}
			if outstanding > lookahead {
				return
			}
			if !request(w, now) {
				return
			}
		}
	}

	// startCompute pops the next queued batch for w, if any.
	startCompute := func(w int, now float64) {
		if computing[w] || len(queued[w]) == 0 {
			return
		}
		a := queued[w][0]
		queued[w] = queued[w][1:]
		computing[w] = true
		if everWorked[w] && now > idleSince[w] {
			m.StallTime += now - idleSince[w]
		}
		t := now
		for range a.Tasks {
			t += 1 / model.Speed(w)
			model.OnTaskDone(w)
		}
		q.push(bwEvent{t: t, kind: evCompute, w: w, a: a, seq: seq})
		seq++
	}

	for w := 0; w < p; w++ {
		fill(w, 0)
	}

	for q.len() > 0 {
		e := q.pop()
		switch e.kind {
		case evArrival:
			inFlight[e.w]--
			queued[e.w] = append(queued[e.w], e.a)
			startCompute(e.w, e.t)
			fill(e.w, e.t)
		case evCompute:
			computing[e.w] = false
			everWorked[e.w] = true
			idleSince[e.w] = e.t
			if len(e.a.Tasks) > 0 {
				m.FinishPer[e.w] = e.t
				if e.t > m.Makespan {
					m.Makespan = e.t
				}
			}
			startCompute(e.w, e.t)
			fill(e.w, e.t)
		}
	}

	if drv.Remaining() != 0 {
		panic("sim: bandwidth run ended with unprocessed tasks")
	}
	m.Blocks, m.BlocksPer, m.TasksPer, m.Requests = ms.Blocks, ms.BlocksPer, ms.TasksPer, ms.Requests
	m.Phase1Tasks = drv.Phase1Tasks()
	return m
}
