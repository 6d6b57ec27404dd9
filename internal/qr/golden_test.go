package qr

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

// TestGoldenMetrics locks the QR kernel under the generic engine to
// its recorded output. Any change to rng consumption order, ready-set
// ordering, policy tie-breaking, two-output write serialization or the
// virtual-time arithmetic shows up here as a bit-level diff.
func TestGoldenMetrics(t *testing.T) {
	golden := []goldenRun{
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
