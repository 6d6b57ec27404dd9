package core

import "hetsched/internal/bitset"

// Master is the paper's demand-driven master, and the one copy of its
// contract that every substrate steps: an idle worker asks; the master
// applies the completions it reports, then serves it; a worker with
// nothing schedulable parks until a later completion lets a retry serve
// it; and once the driver is drained every worker that asks, parked or
// not, retires. The simulator's event loop (sim.RunDriver, under
// sim.Run too), the runtime's channel loop (internal/exec) and the
// network service (service.Host, which adds leases, stripes and a
// journal around it) all call it, so the runtime's numeric tests and
// the served runs exercise the master the simulator measures.
//
// Grant order is part of every schedule: the requester is served first,
// then the parked workers in index order. A drained driver is never
// asked for work.
//
// Like the Driver it owns, a Master is a single-goroutine state machine.
type Master struct {
	drv     Driver
	parked  *bitset.Bitset
	nParked int
	// tmp builds the steps of a batch past its first.
	tmp TaskBuf

	// The task ledger, in total and per worker: the granted batches,
	// the tasks and blocks they shipped, and what became of the tasks,
	// completed or reclaimed. Every granted task is one of completed,
	// reclaimed or still held: Assigned = Completed + Reclaimed + held.
	Requests     int
	Assigned     int
	Blocks       int
	Completed    int
	Reclaimed    int
	RequestsPer  []int
	TasksPer     []int
	BlocksPer    []int
	CompletedPer []int
	ReclaimedPer []int
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
	return &Master{
		drv:          drv,
		parked:       bitset.New(p),
		RequestsPer:  make([]int, p),
		TasksPer:     make([]int, p),
		BlocksPer:    make([]int, p),
		CompletedPer: make([]int, p),
		ReclaimedPer: make([]int, p),
	}
}

// Complete applies worker w's report that it executed ts. An empty
// report changes nothing.
func (m *Master) Complete(w int, ts []Task) {
	if len(ts) > 0 {
		m.drv.Complete(w, ts)
		m.Completed += len(ts)
		m.CompletedPer[w] += len(ts)
	}
}

// Abandon hands ts, granted to worker w and never to be completed by
// it, back to the driver for reassignment. An empty ts changes
// nothing. The parked workers are not retried.
func (m *Master) Abandon(w int, ts []Task) {
	if len(ts) > 0 {
		m.drv.Reassign(w, ts)
		m.Reclaimed += len(ts)
		m.ReclaimedPer[w] += len(ts)
	}
}

// Serve answers worker w's request with a batch built in buf, under
// Driver.NextInto's ownership rule. The driver is stepped until the
// batch holds batch tasks, has taken batch steps, or the driver has
// nothing more to give. The target is a cutoff, not a clamp: a step is
// indivisible, since its blocks pay for all of its tasks, so a batch
// can exceed the target by one step's tasks minus one. A batch of 1
// is one step, built in buf without a copy. A parked worker stays
// parked until a Serve grants or retires it.
func (m *Master) Serve(w, batch int, buf TaskBuf) (Assignment, Status) {
	if m.drv.Remaining() == 0 {
		m.unpark(w)
		return Assignment{}, Retired
	}
	a, ok := m.drv.NextInto(w, buf)
	if !ok {
		if m.parked.SetIfClear(w) {
			m.nParked++
		}
		return Assignment{}, Parked
	}
	for steps := 1; steps < batch && len(a.Tasks) < batch && m.drv.Remaining() > 0; steps++ {
		na, ok := m.drv.NextInto(w, m.tmp)
		if !ok {
			break
		}
		m.tmp = na.Tasks[:0]
		a.Tasks = append(a.Tasks, na.Tasks...)
		a.Blocks += na.Blocks
	}
	m.unpark(w)
	m.Requests++
	m.Assigned += len(a.Tasks)
	m.Blocks += a.Blocks
	m.RequestsPer[w]++
	m.TasksPer[w] += len(a.Tasks)
	m.BlocksPer[w] += a.Blocks
	return a, Granted
}

// Retry calls serve for every parked worker, in index order; serve is
// expected to Serve it. Call it after serving the requester whose
// completion was just applied: a completion can make a parked worker's
// request succeed or, at drain, retire it. So can an Abandon, but its
// one caller, service.Host, never retries: a worker it answers wait
// polls again.
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
