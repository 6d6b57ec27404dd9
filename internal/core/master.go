package core

import "hetsched/internal/bitset"

// Master is the paper's demand-driven master, and the one copy of its
// contract that the substrates step: an idle worker asks; the master
// applies the completions it reports, then serves it; a worker with
// nothing schedulable parks until a later completion lets a retry serve
// it; and once the driver is drained every worker that asks, parked or
// not, retires. The simulator's event loop (sim.RunDriver, under
// sim.Run too) and the runtime's channel loop (internal/exec) both call
// it, so the runtime's numeric tests verify the master the simulator
// measures. service.Host keeps a body of its own, with leases, stripes
// and a journal, under the same contract.
//
// Grant order is part of every schedule: the requester is served first,
// then the parked workers in index order. A drained driver is never
// asked for work.
//
// Like the Driver it owns, a Master is a single-goroutine state machine.
type Master struct {
	drv     Driver
	bd      BufferedDriver // drv's NextInto; nil when it has none
	parked  *bitset.Bitset
	nParked int

	// The ledger of granted assignments: how many there were, the blocks
	// they shipped, in total and per worker, and the tasks per worker.
	Requests  int
	Blocks    int
	BlocksPer []int
	TasksPer  []int
}

// Status is Serve's answer to a worker.
type Status uint8

const (
	// Granted: the worker has an assignment to execute.
	Granted Status = iota
	// Parked: nothing is schedulable for the worker now. It waits in
	// the parked set until a Retry serves it.
	Parked
	// Retired: the driver is drained and the worker is done.
	Retired
)

// NewMaster returns the master of drv, with no worker parked and an
// empty ledger.
func NewMaster(drv Driver) *Master {
	p := drv.P()
	bd, _ := drv.(BufferedDriver)
	return &Master{
		drv:       drv,
		bd:        bd,
		parked:    bitset.New(p),
		BlocksPer: make([]int, p),
		TasksPer:  make([]int, p),
	}
}

// Complete applies worker w's report that it executed ts. An empty
// report changes nothing.
func (m *Master) Complete(w int, ts []Task) {
	if len(ts) > 0 {
		m.drv.Complete(w, ts)
	}
}

// Serve answers worker w's request. A granted assignment is built in
// buf when the driver is a BufferedDriver, with BufferedDriver's
// ownership rule. A parked worker stays parked until a Serve grants or
// retires it.
func (m *Master) Serve(w int, buf TaskBuf) (Assignment, Status) {
	if m.drv.Remaining() == 0 {
		m.unpark(w)
		return Assignment{}, Retired
	}
	var a Assignment
	var ok bool
	if m.bd != nil {
		a, ok = m.bd.NextInto(w, buf)
	} else {
		a, ok = m.drv.Next(w)
	}
	if !ok {
		if m.parked.SetIfClear(w) {
			m.nParked++
		}
		return Assignment{}, Parked
	}
	m.unpark(w)
	m.Requests++
	m.Blocks += a.Blocks
	m.BlocksPer[w] += a.Blocks
	m.TasksPer[w] += len(a.Tasks)
	return a, Granted
}

// Retry calls serve for every parked worker, in index order; serve is
// expected to Serve it. Call it after serving the requester whose
// completion was just applied: a completion is the only event that can
// make a parked worker's request succeed or, at drain, retire it.
func (m *Master) Retry(serve func(w int)) {
	if m.nParked == 0 {
		return
	}
	for w := m.parked.NextSet(0); w >= 0; w = m.parked.NextSet(w + 1) {
		serve(w)
	}
}

func (m *Master) unpark(w int) {
	if m.nParked > 0 && m.parked.Test(w) {
		m.parked.Clear(w)
		m.nParked--
	}
}
