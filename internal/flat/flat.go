// Package flat is the engine behind the paper's two flat kernels, the
// outer product (§3) and matrix multiplication (§4): n^d independent
// unit tasks, one per d-tuple of block indices, whose inputs are d
// arrays of n^(d−1) blocks each (d = 2 and 3). It owns everything the
// two kernels share — the instance (processed set, rng, which blocks
// each worker holds), the strategies Random, Sorted and TwoPhases, the
// β-to-threshold helpers, the §3.6 speed-agnostic β and the state codec
// of all of them — behind a Kernel value that says only what differs:
// which blocks a task reads, the data-aware strategy (Algorithm 1 or
// 3), which is also TwoPhases' first phase, and the kernel's analysis
// (bounds, β optimisers and mean-field curve).
//
// Every strategy is a core.Scheduler state machine, driven by the
// event simulator (package sim), the real runtime (package exec) or the
// service; the communication volume of a run is the total number of
// blocks the master ships.
package flat

import (
	"fmt"

	"hetsched/internal/bitset"
	"hetsched/internal/core"
	"hetsched/internal/rng"
)

// Kernel is what one flat kernel adds to the engine, the one place its
// task shape, data-aware strategy and analysis are written.
type Kernel struct {
	// Name completes the strategy names: "Random"+Name, "Sorted"+Name
	// and "Dynamic"+Name+"2Phases".
	Name string
	// Dim is d: a task is a d-tuple of block indices, and a worker's
	// holdings are d slabs of n^(d−1) blocks, one per input.
	Dim int
	// Receive gives worker w the blocks task t reads and returns how
	// many it did not hold: the blocks the grant ships.
	Receive func(in *Instance, w int, t core.Task) int
	// NewDynamic builds the kernel's data-aware strategy on in.
	NewDynamic func(in *Instance) Dynamic

	// LowerBound is the fewest blocks a run on relative speeds rs can
	// ship, Ratio the analysis' communication of TwoPhases at β over
	// that bound, and OptimalBeta the β minimising Ratio.
	LowerBound  func(rs []float64, n int) float64
	Ratio       func(beta float64, rs []float64, n int) float64
	OptimalBeta func(rs []float64, n int) (beta, ratio float64)
	// OptimalBetaHomogeneous is OptimalBeta for p equal-speed workers:
	// the §3.6 speed-agnostic β.
	OptimalBetaHomogeneous func(p, n int) (beta, ratio float64)
	// APosterioriLB is the fewest blocks a run that gave its workers
	// those task counts can have shipped.
	APosterioriLB func(tasksPer []int) float64
	// G is the mean-field fraction of a worker's unprocessed tasks when
	// it knows a fraction x of each input, (1−x^d)^α (Lemmas 1 and 7).
	G func(x, alpha float64) float64
}

// Dynamic is a kernel's data-aware strategy: a scheduler of its own,
// and TwoPhases' first phase. Its state is the instance's followed by
// what AppendWorkers writes.
type Dynamic interface {
	core.Scheduler
	core.Snapshotter
	AppendWorkers(dst []byte) []byte
	RestoreWorkers(r *core.StateReader)
	// Release is called at TwoPhases' switch: the strategy drops what
	// it will not need again, and its state codec writes what is left.
	Release()
	// Known is the size of worker w's index sets, x·n in the mean-field
	// analysis.
	Known(w int) int
}

// Instance is the bookkeeping one run's strategy shares with the
// engine: the processed set, the rng and each worker's holdings.
// Strategies embed it, which gives them Remaining, Total and P.
type Instance struct {
	N         int            // blocks per dimension
	R         *rng.PCG       // every draw of the run
	Processed *bitset.Bitset // the n^d task bits of allocated tasks
	Left      int            // tasks not yet allocated: Processed's complement
	// Own[s][w] holds the blocks of input s that worker w holds, slab
	// backed: d allocations for the whole fleet.
	Own [][]bitset.Bitset

	receive func(in *Instance, w int, t core.Task) int // the kernel's Receive
	p       int
	total   int
}

// NewInstance returns the instance of an n-block run of k on p workers.
func NewInstance(k *Kernel, n, p int, r *rng.PCG) *Instance {
	if n <= 0 || p <= 0 {
		panic(fmt.Sprintf("flat: invalid %s instance n=%d p=%d", k.Name, n, p))
	}
	if r == nil {
		panic("flat: nil rng")
	}
	total := k.Tasks(n)
	in := &Instance{N: n, R: r, Processed: bitset.New(total), Left: total, receive: k.Receive, p: p, total: total}
	in.Own = make([][]bitset.Bitset, k.Dim)
	for s := range in.Own {
		in.Own[s] = bitset.NewSlab(p, total/n)
	}
	return in
}

// Tasks returns n^d, the task count of an n-block run.
func (k *Kernel) Tasks(n int) int {
	t := 1
	for range k.Dim {
		t *= n
	}
	return t
}

// NewDynamic builds k's data-aware strategy for an n-block run on p
// workers.
func NewDynamic(k *Kernel, n, p int, r *rng.PCG) Dynamic {
	return k.NewDynamic(NewInstance(k, n, p, r))
}

// Remaining implements core.Scheduler.
func (in *Instance) Remaining() int { return in.Left }

// Total implements core.Scheduler.
func (in *Instance) Total() int { return in.total }

// P implements core.Scheduler.
func (in *Instance) P() int { return in.p }

// MarkProcessed marks task t processed if it was not; it reports
// whether it was fresh.
func (in *Instance) MarkProcessed(t core.Task) bool {
	if in.Processed.SetIfClear(int(t)) {
		in.Left--
		return true
	}
	return false
}

// Append appends the instance's state: the rng, the processed set and,
// worker by worker, its slab of each input. Left is not written.
func (in *Instance) Append(dst []byte) []byte {
	dst = in.R.AppendState(dst)
	dst = in.Processed.AppendWords(dst)
	for w := range in.p {
		for _, own := range in.Own {
			dst = own[w].AppendWords(dst)
		}
	}
	return dst
}

// Restore reads what Append wrote at the head of src, then the
// strategy's own fields through own, and checks that nothing is left.
func (in *Instance) Restore(src []byte, own func(*core.StateReader)) error {
	r := core.NewStateReader(src)
	if err := in.R.RestoreState(r.Bytes(rng.StateBytes)); err != nil {
		r.Fail(err)
	}
	if !in.Processed.LoadWords(r.Word) {
		r.Failf("flat: processed set has a task past %d", in.total)
	}
	for w := range in.p {
		for _, slab := range in.Own {
			if !slab[w].LoadWords(r.Word) {
				r.Failf("flat: worker %d holds a block past %d", w, in.total/in.N)
			}
		}
	}
	in.Left = in.total - in.Processed.Count()
	own(r)
	return r.Done()
}

// admitUnprocessed is the check on a restored task pool: a random
// strategy's pool is exactly the unprocessed tasks, so it admits each
// of them once (the caller reads Left of them).
func (in *Instance) admitUnprocessed() func(core.Task) bool {
	seen := bitset.New(in.total)
	return func(t core.Task) bool {
		return int64(t) < int64(in.total) && !in.Processed.Test(int(t)) && seen.SetIfClear(int(t))
	}
}
