package dag_test

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"hetsched/internal/cholesky"
	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/linalg"
	"hetsched/internal/lu"
	"hetsched/internal/qr"
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

// kernels are the three factorizations, each with the task a one-tile
// run consists of, the grid on which LocalityReady must ship less than
// RandomReady and the one TestNumericReplay factors (0: the kernel has
// no numerics).
var kernels = []struct {
	name      string
	k         *dag.Kernel
	first     string
	localityN int
	replayN   int
	lower     bool // the factor is lower-triangular: the upper tiles end zero
	golden    []goldenRun
}{
	{"cholesky", cholesky.Kernel, "POTRF(0)", 16, 5, true, choleskyGolden},
	{"lu", lu.Kernel, "GETRF(0)", 14, 6, false, luGolden},
	{"qr", qr.Kernel, "GEQRT(0)", 12, 0, false, qrGolden},
}

// simulate runs k on n×n tiles on fixed speeds s and returns the run.
func simulate(k *dag.Kernel, n int, pol dag.Policy, s []float64, r *rng.PCG) *sim.Metrics {
	return sim.RunDriver(dag.NewDriver(k, n, len(s), pol, r), speeds.NewFixed(s))
}

func scheduleHash(schedule []core.Task, n int) uint64 {
	h := fnv.New64a()
	for _, ct := range schedule {
		t := dag.DecodeTask(ct, n)
		fmt.Fprintf(h, "%d,%d,%d,%d;", t.Kind, t.I, t.J, t.K)
	}
	return h.Sum64()
}

// TestGoldenMetrics locks each kernel under the generic engine to its
// recorded output: Cholesky's and LU's to that of the pre-refactor
// per-kernel engines (captured at commit 2e633d4, before the generic
// coordinator replaced their bespoke Simulate loops). Any change to rng
// consumption order, ready-set ordering, policy tie-breaking, two-output
// write serialization or the virtual-time arithmetic shows up here as a
// bit-level diff.
func TestGoldenMetrics(t *testing.T) {
	for _, kc := range kernels {
		t.Run(kc.name, func(t *testing.T) {
			for _, g := range kc.golden {
				root := rng.New(g.seed)
				s := speeds.UniformRange(g.p, 10, 100, root.Split())
				m := simulate(kc.k, g.n, g.policy, s, root.Split())
				if m.Blocks != g.blocks || m.Makespan != g.makespan || m.WaitTime != g.wait {
					t.Errorf("seed=%d n=%d p=%d %v: got (blocks=%d makespan=%.17g wait=%.17g), want (%d, %.17g, %.17g)",
						g.seed, g.n, g.p, g.policy, m.Blocks, m.Makespan, m.WaitTime, g.blocks, g.makespan, g.wait)
				}
				if h := scheduleHash(m.Schedule, g.n); h != g.schedHash {
					t.Errorf("seed=%d n=%d p=%d %v: schedule hash %#x, want %#x",
						g.seed, g.n, g.p, g.policy, h, g.schedHash)
				}
			}
		})
	}
}

var allPolicies = []dag.Policy{dag.RandomReady, dag.LocalityReady, dag.CriticalPathReady}

// TestSimulateCompletesAllTasks: every task completes, once, on some
// worker, and the makespan respects the Σcost/Σspeed work bound and the
// critical-path/max-speed bound.
func TestSimulateCompletesAllTasks(t *testing.T) {
	for _, kc := range kernels {
		t.Run(kc.name, func(t *testing.T) {
			root := rng.New(1)
			const n, p = 8, 4
			s := speeds.UniformRange(p, 10, 100, root.Split())
			sum := 0.0
			for _, v := range s {
				sum += v
			}
			work, cp := kc.k.TotalWork(n)/sum, kc.k.CriticalPath(n)/slices.Max(s)
			for _, pol := range allPolicies {
				m := simulate(kc.k, n, pol, s, root.Split())
				total := 0
				for _, v := range m.TasksPer {
					total += v
				}
				if len(m.Schedule) != kc.k.Tasks(n) || total != kc.k.Tasks(n) {
					t.Fatalf("%v: %d tasks completed, %d on the workers, want %d", pol, len(m.Schedule), total, kc.k.Tasks(n))
				}
				if m.Makespan < work-1e-9 || m.Makespan < cp-1e-9 {
					t.Fatalf("%v: makespan %g below bounds (%g, %g)", pol, m.Makespan, work, cp)
				}
				if eff := work / m.Makespan; eff <= 0 || eff > 1 {
					t.Fatalf("%v: efficiency %g out of (0,1]", pol, eff)
				}
			}
		})
	}
}

func TestLocalityReducesComm(t *testing.T) {
	for _, kc := range kernels {
		t.Run(kc.name, func(t *testing.T) {
			root := rng.New(4)
			const p = 6
			s := speeds.UniformRange(p, 10, 100, root.Split())
			rnd := simulate(kc.k, kc.localityN, dag.RandomReady, s, root.Split())
			loc := simulate(kc.k, kc.localityN, dag.LocalityReady, s, root.Split())
			if loc.Blocks >= rnd.Blocks {
				t.Fatalf("LocalityReady shipped %d blocks, RandomReady %d; expected locality to win", loc.Blocks, rnd.Blocks)
			}
		})
	}
}

// TestDeterminism: equal seeds ⇒ bit-identical communication volume,
// makespan and schedule, for every policy.
func TestDeterminism(t *testing.T) {
	for _, kc := range kernels {
		t.Run(kc.name, func(t *testing.T) {
			for _, n := range []int{10, 12} {
				for _, pol := range allPolicies {
					run := func() *sim.Metrics {
						root := rng.New(9)
						s := speeds.UniformRange(4, 10, 100, root.Split())
						return simulate(kc.k, n, pol, s, root.Split())
					}
					a, b := run(), run()
					if a.Blocks != b.Blocks || a.Makespan != b.Makespan || !slices.Equal(a.Schedule, b.Schedule) {
						t.Fatalf("n=%d %v: non-deterministic: (%d, %g) vs (%d, %g)", n, pol, a.Blocks, a.Makespan, b.Blocks, b.Makespan)
					}
				}
			}
		})
	}
}

func TestSingleTile(t *testing.T) {
	for _, kc := range kernels {
		t.Run(kc.name, func(t *testing.T) {
			m := simulate(kc.k, 1, dag.RandomReady, []float64{10}, rng.New(5))
			if len(m.Schedule) != 1 || kc.k.Format(dag.DecodeTask(m.Schedule[0], 1)) != kc.first {
				t.Fatalf("n=1 schedule = %v", m.Schedule)
			}
		})
	}
}

// TestNumericReplay is the end-to-end verification: simulate, replay
// the schedule on a real matrix, check the factors against it.
func TestNumericReplay(t *testing.T) {
	for _, kc := range kernels {
		t.Run(kc.name, func(t *testing.T) {
			num := kc.k.Numerics
			if kc.replayN == 0 {
				if num != nil {
					t.Fatal("kernel has numerics but no replay row")
				}
				return
			}
			root := rng.New(3)
			const l, p = 4, 3
			n := kc.replayN
			a := linalg.NewBlockedMatrix(n, l)
			num.Fill(a, root.Split())

			for _, pol := range allPolicies {
				work := a.Clone()
				s := speeds.UniformRange(p, 10, 100, root.Split())
				m := simulate(kc.k, n, pol, s, root.Split())
				if err := kc.k.Replay(m.Schedule, work); err != nil {
					t.Fatalf("%v: replay: %v", pol, err)
				}
				if res := num.Residual(a, work); res > 1e-8 {
					t.Fatalf("%v: %s = %g", pol, num.Label, res)
				}
				for i := 0; kc.lower && i < n; i++ {
					for j := i + 1; j < n; j++ {
						if slices.ContainsFunc(work.Block(i, j).Data, func(v float64) bool { return v != 0 }) {
							t.Fatalf("%v: upper tile (%d,%d) not cleared", pol, i, j)
						}
					}
				}
			}
		})
	}
}

func TestReplayRejectsBadSchedule(t *testing.T) {
	for _, kc := range kernels {
		if kc.k.Numerics == nil {
			continue
		}
		t.Run(kc.name, func(t *testing.T) {
			m := linalg.NewBlockedMatrix(3, 2)
			err := kc.k.Replay([]core.Task{0}, m)
			if want := fmt.Sprintf("%s: schedule has 1 tasks, want %d for n=3", kc.name, kc.k.Tasks(3)); err == nil || err.Error() != want {
				t.Fatalf("short schedule: %v, want %q", err, want)
			}
		})
	}
}

var choleskyGolden = []goldenRun{
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

var luGolden = []goldenRun{
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

var qrGolden = []goldenRun{
	{1, 6, 4, 0, 132, 2.4560432313836809, 0.57677314569940163, 0x3ce4d23930a98f03},
	{1, 6, 4, 1, 110, 2.4176675558933112, 0.60064449935760789, 0xb0790129753337c7},
	{1, 6, 4, 2, 105, 2.393194988082215, 0.67267047795204826, 0xc653efddbc0eca9b},
	{1, 6, 8, 0, 153, 1.9571594500088709, 2.026747608202323, 0x3a16a140942603bf},
	{1, 6, 8, 1, 154, 1.8804080990281311, 2.4597050621547174, 0xdca1fca66d2b354f},
	{1, 6, 8, 2, 156, 2.1476607614126633, 3.0151552001576816, 0x465c865cdda52c8f},
	{1, 16, 4, 0, 2293, 34.231102537410159, 0.48030555511186862, 0x704cde90c0254da2},
	{1, 16, 4, 1, 879, 34.576483616823495, 0.61250255718699953, 0x9453a0a8f2c81eb2},
	{1, 16, 4, 2, 985, 34.115975510939066, 0.54602439321268714, 0x4bb9741fafb6fdc0},
	{1, 16, 8, 0, 3032, 15.081640467715408, 1.0264834174726838, 0x65df9f701191ea14},
	{1, 16, 8, 1, 1485, 15.350270196147999, 1.1454222836828079, 0x87f2b585df4076cc},
	{1, 16, 8, 2, 1566, 15.580524249090216, 1.0364440626944242, 0x86b9a6f52f1d2d76},
	{7, 6, 4, 0, 152, 2.0989673536435243, 0.22155848692202415, 0x461238bc02b67337},
	{7, 6, 4, 1, 104, 2.2021952562817306, 0.35685163766752781, 0x52fba7becc5b3cf7},
	{7, 6, 4, 2, 113, 2.4086510615581429, 0.54741976751362575, 0x69ef92681a291c67},
	{7, 6, 8, 0, 153, 2.0989673536435247, 1.7751657269072876, 0x8cecda1010ab8237},
	{7, 6, 8, 1, 157, 1.6860557430907004, 1.8584724948265148, 0xb5476e8c1cb295ef},
	{7, 6, 8, 2, 158, 1.8925115483671124, 2.0675400856324178, 0x936c77bd1d892cdb},
	{7, 16, 4, 0, 2257, 28.055814686061847, 0.54597325962363241, 0xb383590778a59224},
	{7, 16, 4, 1, 854, 28.422082526386138, 0.93466896649751829, 0x67cb411f114fff66},
	{7, 16, 4, 2, 950, 28.146808119350919, 0.64278361382928884, 0xebaa33d296ad7276},
	{7, 16, 8, 0, 3067, 13.006715732413994, 0.75737464502496543, 0x16e44b28a0d9adbe},
	{7, 16, 8, 1, 1481, 14.142222661434262, 4.0628746445924175, 0xb2ca6eb4003baba},
	{7, 16, 8, 2, 1679, 13.57480828886259, 0.7154639647796297, 0x9f03203966713384},
	{42, 6, 4, 0, 149, 1.3789838886870645, 0.13392242601408366, 0x9a4fdd40b7904a77},
	{42, 6, 4, 1, 115, 1.4266862115375658, 0.25092053139993298, 0x4d5b89d587b85603},
	{42, 6, 4, 2, 116, 1.4452588669378368, 0.32880154664309902, 0x1b667f2a58866013},
	{42, 6, 8, 0, 167, 0.91366064078583986, 0.80764480297542718, 0x38042dc8eb15a04b},
	{42, 6, 8, 1, 162, 0.92948732473014173, 0.74300657001583548, 0x58dce6f609f83327},
	{42, 6, 8, 2, 154, 0.98587349519489886, 1.1799611000189585, 0xf4e4d34ec259cac7},
	{42, 16, 4, 0, 2467, 22.024051518333525, 0.23621860999639249, 0x390f18b24e09656a},
	{42, 16, 4, 1, 1047, 21.900638722016701, 0.24218150492007989, 0xbe51ae91ca88f516},
	{42, 16, 4, 2, 1025, 22.054576884263305, 0.36859992553436033, 0x162ee39c70d09282},
	{42, 16, 8, 0, 3127, 10.565237899019147, 0.51742781504842217, 0xc695e62d8ea3b92c},
	{42, 16, 8, 1, 1539, 10.564587396004324, 1.0137560051973376, 0x3793d249fe7844e8},
	{42, 16, 8, 2, 1699, 10.554932354170258, 0.89861538610258029, 0xb6ce56de50604b9a},
}
