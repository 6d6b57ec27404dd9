package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"hetsched/internal/plot"
)

// quickHashes pins, for every registry id, an FNV-64a hash of its Quick
// plot.Result at seed 7. Between them the experiments run every
// simulator entry point — sim.Run, sim.RunObserved (abl-ode,
// abl-switchtime, convergence), sim.RunBandwidth (abl-overlap) and
// sim.RunDriver (the DAG experiments) — so a change to any of them that
// moves one grant, one draw or one floating-point sum moves a value
// here.
var quickHashes = map[string]string{
	"abl-cholesky":   "df3b975fc8949f12",
	"abl-lu":         "70e3631f20a55c69",
	"abl-mapreduce":  "756a207a8aa163ea",
	"abl-ode":        "887e3eb50052714d",
	"abl-ode-matrix": "1681b63a3595cb07",
	"abl-overlap":    "8c17de8cc3e9a244",
	"abl-perproc":    "75ca3dd552e52565",
	"abl-phase2":     "0419c194348ea5ff",
	"abl-qr":         "bdc04dbfa8d37b59",
	"abl-robust":     "e47888771c461780",
	"abl-static":     "faf4c307a1c3df1c",
	"abl-switchtime": "1f6e3097790572c3",
	"fig1":           "a18afbd151d16dd6",
	"fig2":           "f0789702f1124ffe",
	"fig4":           "a9a716644debc54d",
	"fig5":           "6addfaa4a7dd8c02",
	"fig6":           "e0a8d68ad5302464",
	"fig7":           "1618c5c6ca031ecf",
	"fig8":           "720bc121e349d979",
	"fig9":           "edac7f6ddead343d",
	"fig10":          "6197ba81b4fb7dfb",
	"fig11":          "dbadcc3c7663be60",
	"sec36":          "b98e57528748b280",
}

// hashResult hashes every field of res: labels, series names, the bits
// of every point, notes and ticks in key order.
func hashResult(res *plot.Result) string {
	h := fnv.New64a()
	var b [8]byte
	str := func(s string) {
		binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
		h.Write(b[:])
		h.Write([]byte(s))
	}
	num := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	str(res.ID)
	str(res.Title)
	str(res.XLabel)
	str(res.YLabel)
	for _, s := range res.Series {
		str(s.Name)
		num(float64(len(s.Points)))
		for _, pt := range s.Points {
			num(pt.X)
			num(pt.Y)
			num(pt.StdDev)
		}
	}
	for _, n := range res.Notes {
		str(n)
	}
	ticks := make([]float64, 0, len(res.XTicks))
	for x := range res.XTicks {
		ticks = append(ticks, x)
	}
	sort.Float64s(ticks)
	for _, x := range ticks {
		num(x)
		str(res.XTicks[x])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestQuickResultsPinned checks every experiment's Quick result at seed
// 7 against its pinned hash, and that the pins cover the registry. The
// values were taken before the simulator's three demand-driven loops
// became one.
func TestQuickResultsPinned(t *testing.T) {
	for _, id := range IDs() {
		if _, ok := quickHashes[id]; !ok {
			t.Errorf("%s has no pinned hash", id)
		}
	}
	for id, want := range quickHashes {
		t.Run(id, func(t *testing.T) {
			exp, ok := Registry[id]
			if !ok {
				t.Fatalf("%s is pinned but not in the registry", id)
			}
			if got := hashResult(exp.Run(Config{Seed: 7, Quick: true, Workers: 1})); got != want {
				t.Fatalf("Quick result hash %s, pinned %s", got, want)
			}
		})
	}
}
