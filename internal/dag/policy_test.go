package dag

import (
	"testing"

	"hetsched/internal/rng"
)

// flatKernel is a dependency-free workload: total tasks, all ready up
// front, each writing its own tile and reading the shared tile 0 plus
// its own — so every task has equal ship cost for a cold worker and
// equal depth, the worst case for tie-breaking.
type flatKernel struct {
	noState
	total int
}

// flat is the flat workload of total tasks, on total×total tiles.
func flat(total int) *Kernel { return testKernel("Flat", total, &flatKernel{total: total}) }

func (k *flatKernel) InitialReady(r []Task) []Task {
	for i := 0; i < k.total; i++ {
		r = append(r, Task{I: i})
	}
	return r
}
func (k *flatKernel) InputTiles(t Task, buf []int) []int  { return append(buf, 0, t.I+1) }
func (k *flatKernel) OutputTiles(t Task, buf []int) []int { return append(buf, t.I+1) }
func (k *flatKernel) Complete(t Task, ready []Task) []Task {
	return ready
}

// emptyKernel starts with nothing ready (a degenerate but legal DAG
// shape: no tasks).
type emptyKernel struct{ noState }

func (k *emptyKernel) InitialReady(r []Task) []Task        { return r }
func (k *emptyKernel) InputTiles(t Task, buf []int) []int  { return buf }
func (k *emptyKernel) OutputTiles(t Task, buf []int) []int { return buf }
func (k *emptyKernel) Complete(t Task, ready []Task) []Task {
	return ready
}

// TestTryAssignEmptyReadySet: every policy must answer ok=false — not
// panic, not fabricate a task — when the ready set is empty, both for
// the degenerate empty DAG and mid-run when everything ready is in
// flight.
func TestTryAssignEmptyReadySet(t *testing.T) {
	for _, policy := range []Policy{RandomReady, LocalityReady, CriticalPathReady} {
		t.Run(policy.String(), func(t *testing.T) {
			c := NewCoordinator(testKernel("Empty", 0, &emptyKernel{}), 1, 2, policy, rng.New(1))
			if _, _, ok := c.TryAssign(0); ok {
				t.Fatal("assignment from an empty DAG")
			}
			if !c.Done() {
				t.Fatal("empty DAG not done")
			}

			// Mid-run empty: a single ready chain task in flight leaves
			// the ready set empty for everyone else.
			c2 := NewCoordinator(chain(3), 3, 2, policy, rng.New(2))
			if _, _, ok := c2.TryAssign(0); !ok {
				t.Fatal("no initial assignment")
			}
			if _, _, ok := c2.TryAssign(1); ok {
				t.Fatal("assignment while the ready set is drained")
			}
		})
	}
}

// TestTieBreakDeterminism: under fully tied scores (equal ship cost,
// equal depth), the pick must be a pure function of the rng stream —
// two coordinators built from the same seed agree on the entire
// assignment sequence, for every policy.
func TestTieBreakDeterminism(t *testing.T) {
	const total, p, seed = 12, 3, 7
	for _, policy := range []Policy{RandomReady, LocalityReady, CriticalPathReady} {
		t.Run(policy.String(), func(t *testing.T) {
			a := NewCoordinator(flat(total), total, p, policy, rng.New(seed))
			b := NewCoordinator(flat(total), total, p, policy, rng.New(seed))
			for i := 0; i < total; i++ {
				w := i % p
				ta, sa, oka := a.TryAssign(w)
				tb, sb, okb := b.TryAssign(w)
				if !oka || !okb {
					t.Fatalf("step %d: ok=%v/%v with tasks remaining", i, oka, okb)
				}
				if ta != tb || sa != sb {
					t.Fatalf("step %d diverged under equal seeds: %+v/%d vs %+v/%d", i, ta, sa, tb, sb)
				}
				a.Complete(w, ta)
				b.Complete(w, tb)
			}
			if !a.Done() || !b.Done() {
				t.Fatal("runs did not drain")
			}
		})
	}
}

// TestTieBreakSpreadsUnderEqualScores: the reservoir tie-break must
// actually randomize — across seeds, a fully tied first pick should
// not collapse onto one ready-set position for any policy (a
// first-match bug would always return task 0).
func TestTieBreakSpreadsUnderEqualScores(t *testing.T) {
	const total = 8
	for _, policy := range []Policy{RandomReady, LocalityReady, CriticalPathReady} {
		t.Run(policy.String(), func(t *testing.T) {
			picked := map[int]bool{}
			for seed := uint64(1); seed <= 40; seed++ {
				c := NewCoordinator(flat(total), total, 1, policy, rng.New(seed))
				task, _, ok := c.TryAssign(0)
				if !ok {
					t.Fatal("no assignment")
				}
				picked[task.I] = true
			}
			if len(picked) < 2 {
				t.Fatalf("40 seeds always picked task %v: tie-break not randomized", picked)
			}
		})
	}
}

// TestLocalityBreaksTiesOnlyAmongCheapest: when ship costs differ,
// LocalityReady must never pick a more expensive candidate, whatever
// the rng says — ties are broken only inside the cheapest class.
func TestLocalityBreaksTiesOnlyAmongCheapest(t *testing.T) {
	const total, p = 12, 2
	for seed := uint64(1); seed <= 20; seed++ {
		c := NewCoordinator(flat(total), total, p, LocalityReady, rng.New(seed))
		// Warm worker 0: execute one task, so it holds the shared tile
		// 0 and one private tile.
		warm, _, ok := c.TryAssign(0)
		if !ok {
			t.Fatal("no initial assignment")
		}
		c.Complete(0, warm)
		// Worker 1 is cold: every candidate costs two blocks (shared
		// tile + private tile). Worker 0 holds the current shared tile,
		// so its cheapest class costs one block — and the tie-break must
		// not escape it.
		if _, shipped, ok := c.TryAssign(1); !ok || shipped != 2 {
			t.Fatalf("seed %d: cold worker shipped %d blocks, want 2", seed, shipped)
		}
		if _, shipped, ok := c.TryAssign(0); !ok || shipped != 1 {
			t.Fatalf("seed %d: warm worker shipped %d blocks, want exactly 1", seed, shipped)
		}
	}
}

// TestCriticalPathPrefersDepthOverLocality: CriticalPathReady must
// take the smaller step K even when a shallower task would ship fewer
// blocks; ties on depth fall back to locality.
func TestCriticalPathPrefersDepthOverLocality(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		c := NewCoordinator(testKernel("Depth", 2, &depthKernel{}), 2, 1, CriticalPathReady, rng.New(seed))
		task, _, ok := c.TryAssign(0)
		if !ok || task.I != 0 {
			t.Fatalf("seed %d: picked %+v, want the depth-0 task {I:0}", seed, task)
		}
	}
}

// depthKernel: two ready tasks; task 0 has depth 0 but two cold input
// tiles, task 1 has depth 1 and only one — locality alone would pick
// task 1.
type depthKernel struct{ noState }

func (k *depthKernel) InitialReady(r []Task) []Task {
	return append(r, Task{I: 0, K: 0}, Task{I: 1, K: 1})
}
func (k *depthKernel) InputTiles(t Task, buf []int) []int {
	if t.I == 0 {
		return append(buf, 0, 1)
	}
	return append(buf, 2)
}
func (k *depthKernel) OutputTiles(t Task, buf []int) []int { return append(buf, t.I) }
func (k *depthKernel) Complete(t Task, ready []Task) []Task {
	return ready
}
