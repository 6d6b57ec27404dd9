package cholesky

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
// the generic internal/dag coordinator replaced the bespoke Cholesky
// Simulate loop). Any change to rng consumption order, ready-set
// ordering, policy tie-breaking or the virtual-time arithmetic shows
// up here as a bit-level diff.
func TestGoldenMetrics(t *testing.T) {
	golden := []goldenRun{
		{1, 6, 4, 0, 75, 0.9105254069005434, 0.40329255727324609, 0xd6675498db5550bc},
		{1, 6, 4, 1, 61, 0.62700955404630521, 0.14931169741511124, 0xdc68d30ba47ca1bc},
		{1, 6, 4, 2, 66, 0.7675135098074003, 0.33802655967049083, 0x39e5327d11f98ff8},
		{1, 6, 8, 0, 83, 0.67157432108147519, 0.42758251584970519, 0x644f347c1fb78d9c},
		{1, 6, 8, 1, 84, 0.68970521281347807, 0.84565664160794185, 0x781ed5a571c2730},
		{1, 6, 8, 2, 80, 0.64189567846795315, 0.54147817752114025, 0xbb1f1b7b858f31e0},
		{1, 16, 4, 0, 892, 8.7304661740591847, 0.22526769229621518, 0x1017adbb311d5fbe},
		{1, 16, 4, 1, 513, 8.8146520084223319, 0.54742408990347746, 0x6a7562c784ac7fbc},
		{1, 16, 4, 2, 458, 8.5915068198467299, 0.11633758981793289, 0x66be552e42a02b4a},
		{1, 16, 8, 0, 1323, 3.8145379033457019, 0.47124065773897672, 0x770b114ef08cfce6},
		{1, 16, 8, 1, 693, 3.8257595292837197, 0.51702645624311905, 0x7b52c24f5159639e},
		{1, 16, 8, 2, 775, 3.878304738123957, 0.80191332893447131, 0xaf0764c58bc1992a},
		{7, 6, 4, 0, 71, 0.53291034937149573, 0.092177667155792009, 0x6644b69000ba1e00},
		{7, 6, 4, 1, 56, 0.49893486275132964, 0.12368884161643087, 0x3ca201f8454db4},
		{7, 6, 4, 2, 58, 0.55054881407043266, 0.22986517498269909, 0x1f91ddb699c3e2c4},
		{7, 6, 8, 0, 85, 0.60216276538953573, 0.28590159205725474, 0xf7f0cf4f89554f38},
		{7, 6, 8, 1, 82, 0.55256697243871522, 0.25894449632762107, 0x19d25dfb5e4d1274},
		{7, 6, 8, 2, 77, 0.52502947087333385, 0.23749855407979276, 0xd827cf20b6e39410},
		{7, 16, 4, 0, 905, 7.1219393376118969, 0.11285632236737875, 0x6c7a44aee1952b3e},
		{7, 16, 4, 1, 499, 7.1845263064318203, 0.57456125665278435, 0xdac5ac1f67a6db76},
		{7, 16, 4, 2, 505, 7.1131349901845091, 0.19285469962913548, 0xe728be9ea257fa6e},
		{7, 16, 8, 0, 1297, 3.5098856637634839, 0.60189846312716888, 0x8360d838c21496de},
		{7, 16, 8, 1, 762, 3.6037127260117323, 1.3819460840806921, 0xa898b1d533e3b428},
		{7, 16, 8, 2, 809, 3.2340030336644054, 0.33416560205715984, 0x92c9c433313e90e4},
		{42, 6, 4, 0, 83, 0.3511503931968662, 0.070093180921878231, 0x1133634853e024e8},
		{42, 6, 4, 1, 66, 0.37590768556626231, 0.11913410560250944, 0x9b28a2bef54d9cdc},
		{42, 6, 4, 2, 66, 0.37806926931206059, 0.045085761247941683, 0x4a31247bd3b4290},
		{42, 6, 8, 0, 92, 0.31436521984048554, 0.41241690402554632, 0xa150a5970007681c},
		{42, 6, 8, 1, 83, 0.31141549898905507, 0.2958007984702784, 0xa791c3ea0a7fb418},
		{42, 6, 8, 2, 83, 0.31141549898905507, 0.2958007984702784, 0xa791c3ea0a7fb418},
		{42, 16, 4, 0, 997, 5.5552419535397961, 0.12759056810030345, 0xdb9ef03ed66886bc},
		{42, 16, 4, 1, 505, 5.5336657048598665, 0.098026596900203974, 0x39a4f45847312ea8},
		{42, 16, 4, 2, 533, 5.5253558114437151, 0.066437632977093583, 0xef53a657d16ba76},
		{42, 16, 8, 0, 1367, 2.7376031917345887, 0.32861047400130139, 0xc195e78d38240ea4},
		{42, 16, 8, 1, 783, 2.6865341499450115, 0.19783073778141502, 0x585be8233f41b26c},
		{42, 16, 8, 2, 838, 2.6978895138783421, 0.30470786481472073, 0x569605fbf80b8ef6},
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
