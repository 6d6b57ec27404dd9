package lu

import (
	"fmt"
	"hash/fnv"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

// goldenRun pins one simulated run: every field must be reproduced
// bit-for-bit (the schedule is pinned through an FNV-1a hash of the
// completion order).
type goldenRun struct {
	seed           uint64
	n, p           int
	policy         dag.Policy
	blocks         int
	makespan, wait float64
	schedHash      uint64
}

func scheduleHash(schedule []core.Task, n int) uint64 {
	h := fnv.New64a()
	for _, ct := range schedule {
		t := dag.DecodeTask(ct, n)
		fmt.Fprintf(h, "%d,%d,%d,%d;", t.Kind, t.I, t.J, t.K)
	}
	return h.Sum64()
}

// TestGoldenMetrics locks the simulated engine to the output of the
// pre-refactor per-kernel engine (captured at commit 2e633d4, before
// the generic internal/dag coordinator replaced the bespoke LU
// Simulate loop). Any change to rng consumption order, ready-set
// ordering, policy tie-breaking or the virtual-time arithmetic shows
// up here as a bit-level diff.
func TestGoldenMetrics(t *testing.T) {
	golden := []goldenRun{
		{1, 6, 4, 0, 127, 1.3623364799081357, 0.63157665054363432, 0xe4f0615eb3e08ccf},
		{1, 6, 4, 1, 104, 1.2088337779466556, 0.11512702647111003, 0x8a986a924288db5f},
		{1, 6, 4, 2, 101, 1.1740939393935417, 0.29002174631721844, 0x50e76f5be7bcd85b},
		{1, 6, 8, 0, 170, 0.88264053627851058, 0.44308392530531476, 0xdf7f8ee6114c8e3},
		{1, 6, 8, 1, 145, 0.88314649824327074, 0.69772521398077014, 0xc2e53f3d2c792c8b},
		{1, 6, 8, 2, 145, 0.88314649824327074, 0.69772521398077014, 0xc2e53f3d2c792c8b},
		{1, 14, 4, 0, 1200, 11.531890484856211, 0.26026811353880419, 0x314ef28fd8483e11},
		{1, 14, 4, 1, 593, 11.570266160346579, 0.3497099685377939, 0x926c3c77fc9ba289},
		{1, 14, 4, 2, 647, 11.540634823960982, 0.36140883845519955, 0x258c061ec1bc2fd5},
		{1, 14, 8, 0, 1766, 5.1231526779643959, 0.54914649575686791, 0x70e5784ee3126a57},
		{1, 14, 8, 1, 969, 5.3534067309066149, 1.3320015048953748, 0xa681f57f2106f3d1},
		{1, 14, 8, 2, 984, 5.0772103497469994, 0.80493525278852029, 0x378c3beb9c0543b9},
		{7, 6, 4, 0, 131, 0.99786972550265929, 0.10551627849236032, 0xf64f8d6b63fa5e9f},
		{7, 6, 4, 1, 94, 1.0712503786946597, 0.13488724310652056, 0xdec13b77717474b7},
		{7, 6, 4, 2, 108, 0.99786972550265929, 0.11537638844256991, 0xa704f0679c49bbff},
		{7, 6, 8, 0, 172, 0.77420926978654603, 0.69957307172100869, 0xaebaf0b47c9cf843},
		{7, 6, 8, 1, 152, 0.91184647330415414, 1.3698278385559779, 0x5ee5310c7e599043},
		{7, 6, 8, 2, 152, 0.91184647330415414, 1.3698278385559779, 0x5ee5310c7e599043},
		{7, 14, 4, 0, 1207, 9.4609371188920797, 0.23295279874436203, 0xcedb5e5850388291},
		{7, 14, 4, 1, 619, 9.5141716931546796, 0.26912506081675747, 0x81cf86de1e794099},
		{7, 14, 4, 2, 632, 9.5220769812884054, 0.41925426609561023, 0x213e43ec80a66d13},
		{7, 14, 8, 0, 1704, 4.5764370169604769, 1.0477758819692635, 0x11425311047bd46f},
		{7, 14, 8, 1, 900, 4.5936416674001777, 1.0964496372155552, 0xf3e6cde270388653},
		{7, 14, 8, 2, 991, 4.6746603657250496, 1.2134078872876737, 0xcf728f497dd1fc27},
		{42, 6, 4, 0, 136, 0.66027657446887367, 0.075359243896823552, 0x8608a782c92e4feb},
		{42, 6, 4, 1, 105, 0.69506432778529648, 0.13967598792207672, 0xf1fdec1d465d1167},
		{42, 6, 4, 2, 111, 0.6859534749819628, 0.12574253011049963, 0xf4e958356738452f},
		{42, 6, 8, 0, 169, 0.41384592144253268, 0.21890915300694422, 0x4440832b8773419b},
		{42, 6, 8, 1, 146, 0.45788048894664451, 0.29760060030214086, 0xe9b805c9e68f0ec3},
		{42, 6, 8, 2, 147, 0.43931266164056887, 0.27210770853379429, 0x38b6b1402e8d5e6f},
		{42, 14, 4, 0, 1315, 7.4325404285588696, 0.20228037041324695, 0x7d795f1a6ddd3d6f},
		{42, 14, 4, 1, 673, 7.4040767684490119, 0.10815029546553775, 0xd487ac73f143b375},
		{42, 14, 4, 2, 685, 7.4452428515081968, 0.16685618938450039, 0xb141d395985a2f6b},
		{42, 14, 8, 0, 1835, 3.5623444078578363, 0.20953940366742918, 0xcb0e2a06d7cd76f7},
		{42, 14, 8, 1, 992, 3.6399658792943175, 0.93897316830373967, 0xa10124a4281da9c1},
		{42, 14, 8, 2, 1014, 3.5857340491686966, 0.32755468190512727, 0x11b207e31c0e37bd},
	}
	for _, g := range golden {
		root := rng.New(g.seed)
		s := speeds.UniformRange(g.p, 10, 100, root.Split())
		m := sim.RunDriver(dag.NewDriver(NewKernel(g.n), g.p, g.policy, root.Split()), speeds.NewFixed(s))
		if m.Blocks != g.blocks || m.Makespan != g.makespan || m.WaitTime != g.wait {
			t.Errorf("seed=%d n=%d p=%d %v: got (blocks=%d makespan=%.17g wait=%.17g), want (%d, %.17g, %.17g)",
				g.seed, g.n, g.p, g.policy, m.Blocks, m.Makespan, m.WaitTime, g.blocks, g.makespan, g.wait)
		}
		if h := scheduleHash(m.Schedule, g.n); h != g.schedHash {
			t.Errorf("seed=%d n=%d p=%d %v: schedule hash %#x, want %#x",
				g.seed, g.n, g.p, g.policy, h, g.schedHash)
		}
	}
}
