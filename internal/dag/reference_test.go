package dag_test

import (
	"fmt"
	"testing"

	"hetsched/internal/cholesky"
	"hetsched/internal/dag"
	"hetsched/internal/lu"
	"hetsched/internal/qr"
	"hetsched/internal/rng"
)

// refCoordinator is the coordinator of PR 3, the one every DAG golden
// in this repository was first pinned with, kept as the oracle of the
// differential test below: int32 tile versions, a p × tiles int32
// cache, one InputTiles call per candidate per poll, the policy switch
// inside the scan. It is that code verbatim but for the
// SingleOutputKernel shortcut, which by its contract answered what
// OutputTiles answers, and for asking a run's progress where it asked
// the kernel. Do not make it faster.
type refCoordinator struct {
	k      *dag.Kernel
	g      dag.Progress
	total  int
	policy dag.Policy
	r      *rng.PCG

	ready    []dag.Task
	version  []int32 // per tile: bumped on every write
	inFlight []bool  // per tile: a writing task is currently assigned
	cache    [][]int32

	tileBuf []int
	outBuf  []int
	done    int
}

func newRefCoordinator(k *dag.Kernel, n, p int, policy dag.Policy, r *rng.PCG) *refCoordinator {
	tiles := n * n
	c := &refCoordinator{
		k:        k,
		g:        k.New(n),
		total:    k.Tasks(n),
		policy:   policy,
		r:        r,
		version:  make([]int32, tiles),
		inFlight: make([]bool, tiles),
		cache:    make([][]int32, p),
	}
	for w := range c.cache {
		c.cache[w] = make([]int32, tiles)
		for i := range c.cache[w] {
			c.cache[w][i] = -1
		}
	}
	c.ready = c.g.InitialReady(c.ready)
	return c
}

func (c *refCoordinator) Done() bool { return c.done == c.total }

func (c *refCoordinator) shipCost(w int, t dag.Task) int {
	c.tileBuf = c.g.InputTiles(t, c.tileBuf[:0])
	cost := 0
	for _, id := range c.tileBuf {
		if c.cache[w][id] != c.version[id] {
			cost++
		}
	}
	return cost
}

func (c *refCoordinator) schedulable(t dag.Task) bool {
	c.outBuf = c.g.OutputTiles(t, c.outBuf[:0])
	for _, id := range c.outBuf {
		if c.inFlight[id] {
			return false
		}
	}
	return true
}

func (c *refCoordinator) TryAssign(w int) (t dag.Task, shipped int, ok bool) {
	bestIdx := -1
	bestCost := 0
	bestKey := 0
	ties := 0
	for idx, cand := range c.ready {
		if !c.schedulable(cand) {
			continue
		}
		switch c.policy {
		case dag.RandomReady:
			ties++
			if c.r.Intn(ties) == 0 {
				bestIdx = idx
			}
		case dag.LocalityReady:
			cost := c.shipCost(w, cand)
			if bestIdx < 0 || cost < bestCost {
				bestIdx, bestCost, ties = idx, cost, 1
			} else if cost == bestCost {
				ties++
				if c.r.Intn(ties) == 0 {
					bestIdx = idx
				}
			}
		case dag.CriticalPathReady:
			cost := c.shipCost(w, cand)
			key := cand.K
			if bestIdx < 0 || key < bestKey || (key == bestKey && cost < bestCost) {
				bestIdx, bestKey, bestCost, ties = idx, key, cost, 1
			} else if key == bestKey && cost == bestCost {
				ties++
				if c.r.Intn(ties) == 0 {
					bestIdx = idx
				}
			}
		default:
			panic("dag: unknown policy")
		}
	}
	if bestIdx < 0 {
		return dag.Task{}, 0, false
	}
	t = c.ready[bestIdx]
	last := len(c.ready) - 1
	c.ready[bestIdx] = c.ready[last]
	c.ready = c.ready[:last]

	c.outBuf = c.g.OutputTiles(t, c.outBuf[:0])
	for _, id := range c.outBuf {
		c.inFlight[id] = true
	}
	c.tileBuf = c.g.InputTiles(t, c.tileBuf[:0])
	for _, id := range c.tileBuf {
		if c.cache[w][id] != c.version[id] {
			c.cache[w][id] = c.version[id]
			shipped++
		}
	}
	return t, shipped, true
}

func (c *refCoordinator) Reassign(t dag.Task) {
	c.outBuf = c.g.OutputTiles(t, c.outBuf[:0])
	for _, id := range c.outBuf {
		if !c.inFlight[id] {
			panic(fmt.Sprintf("dag: reassigning %s task whose output tile %d is not in flight", c.k.Name, id))
		}
		c.inFlight[id] = false
	}
	c.ready = append(c.ready, t)
}

func (c *refCoordinator) Complete(w int, t dag.Task) {
	c.outBuf = c.g.OutputTiles(t, c.outBuf[:0])
	for _, id := range c.outBuf {
		if !c.inFlight[id] {
			panic(fmt.Sprintf("dag: completing %s task whose output tile %d is not in flight", c.k.Name, id))
		}
		c.inFlight[id] = false
		c.version[id]++
		c.cache[w][id] = c.version[id]
	}
	c.done++
	c.ready = c.g.Complete(t, c.ready)
}

var (
	diffKernels = []struct {
		name   string
		kernel *dag.Kernel
	}{
		{"cholesky", cholesky.Kernel},
		{"lu", lu.Kernel},
		{"qr", qr.Kernel},
	}
	diffPolicies = []dag.Policy{dag.RandomReady, dag.LocalityReady, dag.CriticalPathReady}
)

// granted is a task out on a worker.
type granted struct {
	w int
	t dag.Task
}

// differential drives a coordinator and the reference with one script
// and fails at the first call they answer differently. next yields the
// script's draws and false when it has run out: of ten draws six ask
// for a task on a random worker, three complete a random outstanding
// task and one hands a random outstanding task back (with nothing
// outstanding they all ask). The rngs are compared every hundredth
// call and at the end, by their next draw: equal picks reached by a
// different number of tie-break draws would diverge there. It returns
// the coordinator it drove.
func differential(tb testing.TB, k *dag.Kernel, policy dag.Policy, n, p int, seed uint64, next func() (uint32, bool)) *dag.Coordinator {
	ra, rb := rng.New(seed), rng.New(seed)
	got := dag.NewCoordinator(k, n, p, policy, ra)
	ref := newRefCoordinator(k, n, p, policy, rb)
	sameDraw := func(call int) {
		if a, b := ra.Uint32(), rb.Uint32(); a != b {
			tb.Fatalf("call %d: the rngs have parted (next draw %#x, reference %#x)", call, a, b)
		}
	}
	var out []granted
	call := 0
	for ; !ref.Done(); call++ {
		v, ok := next()
		if !ok {
			break
		}
		op, arg := v%10, int(v/10)
		switch {
		case len(out) == 0 || op >= 4:
			w := arg % p
			t, shipped, ok := got.TryAssign(w)
			rt, rshipped, rok := ref.TryAssign(w)
			if t != rt || shipped != rshipped || ok != rok {
				tb.Fatalf("call %d: TryAssign(%d) = %+v, %d, %v; reference %+v, %d, %v", call, w, t, shipped, ok, rt, rshipped, rok)
			}
			if ok {
				out = append(out, granted{w, t})
			} else if len(out) == 0 {
				tb.Fatalf("call %d: nothing schedulable, nothing outstanding, %d of %d tasks done", call, got.Completed(), got.Total())
			}
		default:
			i := arg % len(out)
			g := out[i]
			out[i] = out[len(out)-1]
			out = out[:len(out)-1]
			if op == 0 {
				got.Reassign(g.t)
				ref.Reassign(g.t)
			} else {
				got.Complete(g.w, g.t)
				ref.Complete(g.w, g.t)
			}
		}
		if got.Done() != ref.Done() {
			tb.Fatalf("call %d: Done = %v, reference %v", call, got.Done(), ref.Done())
		}
		if call%100 == 99 {
			sameDraw(call)
		}
	}
	sameDraw(call)
	return got
}

// TestCoordinatorAgainstReference: same picks, same shipped blocks and
// same draws as the reference, on scripts that complete out of order
// and reassign, for every kernel × policy × n in 3..12 × p in
// {1, 2, 5, 16, 65, 130} × 50 seeds (5 under -short), and n = 20 on a
// tenth of the seeds, each driven to drain. At 65 and 130 workers a
// tile's holdings span two and three words; at n = 20 the ready set
// grows long enough for LocalityReady to turn its index on and off
// within a run. The LocalityReady runs must between them have replayed
// the log, filled a row and trimmed the log.
func TestCoordinatorAgainstReference(t *testing.T) {
	seeds := uint64(50)
	if testing.Short() {
		seeds = 5
	}
	var replays, fills, trims int
	for _, k := range diffKernels {
		for _, policy := range diffPolicies {
			t.Run(k.name+"/"+policy.String(), func(t *testing.T) {
				for _, n := range []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 20} {
					nseeds := seeds
					if n == 20 {
						nseeds = max(seeds/10, 1)
					}
					for _, p := range []int{1, 2, 5, 16, 65, 130} {
						for seed := uint64(1); seed <= nseeds; seed++ {
							script := rng.New(seed<<16 | uint64(n)<<8 | uint64(p))
							c := differential(t, k.kernel, policy, n, p, seed, func() (uint32, bool) { return script.Uint32(), true })
							r, f, tr := c.IndexCounts()
							replays, fills, trims = replays+r, fills+f, trims+tr
						}
					}
				}
			})
		}
	}
	if replays == 0 || fills == 0 || trims == 0 {
		t.Fatalf("the LocalityReady runs made %d replays, %d fills, %d log trims; want each above zero", replays, fills, trims)
	}
	t.Logf("LocalityReady: %d replays, %d fills, %d log trims", replays, fills, trims)
}

// FuzzCoordinatorAgainstReference is the same comparison with the
// shape and the script chosen by the fuzzer, two script bytes a call;
// the run stops where the script does.
func FuzzCoordinatorAgainstReference(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(6), uint8(4), uint64(1), []byte("\x04\x00\x14\x00\x24\x00\x01\x00\x04\x00\x00\x00\x04\x01"))
	f.Add(uint8(1), uint8(2), uint8(5), uint8(16), uint64(7), []byte("4444111144440000444411114444"))
	f.Add(uint8(2), uint8(0), uint8(12), uint8(2), uint64(3), []byte{9, 0, 9, 1, 9, 0, 3, 0, 9, 1, 0, 0, 9, 1, 9, 0})
	f.Add(uint8(0), uint8(1), uint8(9), uint8(99), uint64(5), []byte("4e4f441b4c4d11f44a0049f54x4y"))
	f.Fuzz(func(t *testing.T, kernel, policy, n, p uint8, seed uint64, script []byte) {
		k := diffKernels[int(kernel)%len(diffKernels)]
		differential(t, k.kernel, diffPolicies[int(policy)%len(diffPolicies)], 1+int(n)%12, 1+int(p)%130, seed, func() (uint32, bool) {
			if len(script) < 2 {
				return 0, false
			}
			v := uint32(script[0]) | uint32(script[1])<<8
			script = script[2:]
			return v, true
		})
	})
}
