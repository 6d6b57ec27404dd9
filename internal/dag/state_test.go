package dag_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"hetsched/internal/dag"
	"hetsched/internal/rng"
)

// stateAt drives a coordinator with the differential test's script
// mix (six asks, three completions and one hand-back in ten) and
// returns AppendState at the first call after which at least each
// cut's share of the tasks has completed.
func stateAt(tb testing.TB, k *dag.Kernel, policy dag.Policy, n, p int, seed uint64, cuts []float64) [][]byte {
	c := dag.NewCoordinator(k, n, p, policy, rng.New(seed))
	script := rng.New(seed ^ 0x9e3779b97f4a7c15)
	var out []granted
	var states [][]byte
	for len(states) < len(cuts) {
		if c.Done() {
			tb.Fatalf("drained before the %v cut", cuts[len(states)])
		}
		v := script.Uint32()
		op, arg := v%10, int(v/10)
		switch {
		case len(out) == 0 || op >= 4:
			if t, _, ok := c.TryAssign(arg % p); ok {
				out = append(out, granted{arg % p, t})
			} else if len(out) == 0 {
				tb.Fatal("nothing schedulable, nothing outstanding")
			}
		default:
			i := arg % len(out)
			g := out[i]
			out[i] = out[len(out)-1]
			out = out[:len(out)-1]
			if op == 0 {
				c.Reassign(g.t)
			} else {
				c.Complete(g.w, g.t)
			}
		}
		for len(states) < len(cuts) && float64(c.Completed()) >= cuts[len(states)]*float64(c.Total()) {
			states = append(states, c.AppendState(nil))
		}
	}
	return states
}

// TestCoordinatorStatePinned pins the bytes of Coordinator.AppendState
// (FNV-64a and length) for every kernel × policy at p = 16 and at
// p = 100, where a tile's holdings take two words with a partial last
// one, cut at a quarter, half and nine tenths of the run. The bytes
// are the snapshot a served DAG run ships: a change to how the
// coordinator keeps its sets must write them exactly as before. Each
// state must also restore into a fresh coordinator that writes it back
// unchanged.
func TestCoordinatorStatePinned(t *testing.T) {
	sizes := map[string]int{"cholesky": 12, "lu": 10, "qr": 10}
	cuts := []float64{0.25, 0.5, 0.9}
	for _, c := range []struct {
		kernel int
		policy dag.Policy
		p      int
		pins   [3]string
	}{
		{0, dag.RandomReady, 16, [3]string{"0781b6fc206ab29c/598", "8224caf107b07869/603", "4184899a67b751d4/591"}},
		{0, dag.RandomReady, 100, [3]string{"3de9804bdbcf221a/2648", "5e9c04cea241b04e/2608", "c176699713d2e12e/2609"}},
		{0, dag.LocalityReady, 16, [3]string{"94dca8fb13d3170a/596", "6f788bb861aa2122/595", "2c5f2381d5915080/595"}},
		{0, dag.LocalityReady, 100, [3]string{"56f71f0fee3909c4/2612", "6d62af67c43a0e52/2623", "25823637a1814a4b/2609"}},
		{0, dag.CriticalPathReady, 16, [3]string{"7106287e8f09f9e1/614", "87ebfb59e9276c16/609", "56f466f06f9f9f4b/592"}},
		{0, dag.CriticalPathReady, 100, [3]string{"a86ffc41ab82a87d/2678", "bd78e2a35bd78b1a/2609", "f2cef014335b1586/2607"}},
		{1, dag.RandomReady, 16, [3]string{"2d9657b7b0a2fc7b/436", "6deff0408c7cac64/429", "0db38324cf80113d/421"}},
		{1, dag.RandomReady, 100, [3]string{"acf5446d5cd22d2a/1766", "1918e6d944f83d67/1783", "7b55ef3d9bbab1a9/1763"}},
		{1, dag.LocalityReady, 16, [3]string{"4aaf7df8dae7fe31/442", "7d7f486b452422c5/437", "de9074b637629bea/425"}},
		{1, dag.LocalityReady, 100, [3]string{"3ca8e32f4d6cb4f5/1762", "8606c1a033723617/1809", "73107fc87df71683/1773"}},
		{1, dag.CriticalPathReady, 16, [3]string{"48bd32ae7314e6ad/420", "425bdce3394fa9c5/445", "ad7170875e25dadb/429"}},
		{1, dag.CriticalPathReady, 100, [3]string{"e9c454264f88fb72/1764", "ece7ac1e4868a606/1773", "834d44b3bd46d4b3/1763"}},
		{2, dag.RandomReady, 16, [3]string{"b3d338a227b61071/444", "73f9eab2a1896858/423", "84a710609c66f63a/435"}},
		{2, dag.RandomReady, 100, [3]string{"450e405296cf5e65/1772", "969e219ae6892017/1771", "ec6d6dd66ed52a9f/1765"}},
		{2, dag.LocalityReady, 16, [3]string{"22a319eff7e53ba0/420", "114c9dbe2f6f4228/425", "393c66f95fc60143/421"}},
		{2, dag.LocalityReady, 100, [3]string{"fc55c53bb15e28d8/1764", "9f5cfd70fb6188a0/1777", "5d9d6eea3200fabb/1767"}},
		{2, dag.CriticalPathReady, 16, [3]string{"09c74e7d54ec4f74/438", "20552b4513c83a92/431", "632c4f1046372d64/425"}},
		{2, dag.CriticalPathReady, 100, [3]string{"df426ee03b8e065c/1774", "c15076dd8df745d0/1771", "e1c05bc1e1964ce2/1773"}},
	} {
		k := diffKernels[c.kernel]
		n := sizes[k.name]
		t.Run(fmt.Sprintf("%s/%s/p%d", k.name, c.policy, c.p), func(t *testing.T) {
			states := stateAt(t, k.kernel, c.policy, n, c.p, uint64(100*c.kernel+10*int(c.policy)+c.p), cuts)
			for i, st := range states {
				h := fnv.New64a()
				h.Write(st)
				if got := fmt.Sprintf("%016x/%d", h.Sum64(), len(st)); got != c.pins[i] {
					t.Errorf("state at %v: %s; pinned %s", cuts[i], got, c.pins[i])
				}
				back := dag.NewCoordinator(k.kernel, n, c.p, c.policy, rng.New(0))
				if err := back.RestoreState(st); err != nil {
					t.Fatalf("state at %v: restore: %v", cuts[i], err)
				}
				if again := back.AppendState(nil); !bytes.Equal(again, st) {
					t.Errorf("state at %v: restored coordinator writes %d other bytes", cuts[i], len(again))
				}
			}
		})
	}
}
