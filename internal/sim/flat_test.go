package sim_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/rng"
	"hetsched/internal/service"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

// flatRun is one flat simulation of the figures benchmark's shape: a
// kernel × strategy on a fixed platform, its scheduler built the way
// the service builds it, 2phases at the analysis' optimal beta.
type flatRun struct {
	name  string
	req   service.CreateRunRequest
	speed []float64
}

// flatRuns returns the six flat configurations (outer n=on and matmul
// n=mn, each random, dynamic and 2phases) on one U[10,100) platform of
// p processors drawn from seed.
func flatRuns(on, mn, p int, seed uint64) []flatRun {
	r := rng.New(seed)
	init := speeds.UniformRange(p, 10, 100, r.Split())
	rs := speeds.Relative(init)
	var runs []flatRun
	for _, k := range []struct {
		kernel string
		n      int
	}{{"outer", on}, {"matmul", mn}} {
		for _, st := range []string{"random", "dynamic", "2phases"} {
			req := service.CreateRunRequest{Kernel: k.kernel, Strategy: st, N: k.n, P: p, Seed: r.Uint64()}
			if st == "2phases" {
				req.Beta, _ = service.LookupKernel(k.kernel).Flat.OptimalBeta(rs, k.n)
			}
			runs = append(runs, flatRun{name: k.kernel + "-" + st, req: req, speed: init})
		}
	}
	return runs
}

// run builds c's scheduler and simulates it with sim.Run.
func (c flatRun) run(tb testing.TB) (*sim.Metrics, int) {
	drv, err := service.NewDriver(&c.req)
	if err != nil {
		tb.Fatal(err)
	}
	sd, ok := drv.(*core.SchedulerDriver)
	if !ok {
		tb.Fatalf("%s: driver is a %T", c.name, drv)
	}
	return sim.Run(sd.Unwrap(), speeds.NewFixed(c.speed)), drv.Total()
}

// hashPer is an FNV-1a hash of a run's per-processor tasks, blocks and
// finish times (the bits of each float).
func hashPer(m *sim.Metrics) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for k := range m.TasksPer {
		put(uint64(m.TasksPer[k]))
		put(uint64(m.BlocksPer[k]))
		put(math.Float64bits(m.FinishPer[k]))
	}
	return h.Sum64()
}

// flatPins are the six flat runs at the figures benchmark's size (outer
// n=1000, matmul n=100, p=100) on the platform of seed 7.
var flatPins = map[string]string{
	"outer-random":   "blocks=198281 requests=1000000 phase1=-1 makespan=184.70064360364668 per=704981137298d5c5",
	"outer-dynamic":  "blocks=63400 requests=31700 phase1=-1 makespan=184.73951843825586 per=c7683565d2242549",
	"outer-2phases":  "blocks=50283 requests=25699 phase1=997691 makespan=184.70064360364668 per=dba66bdfd2682a2f",
	"matmul-random":  "blocks=1765337 requests=1000000 phase1=-1 makespan=184.70064360364668 per=5a8a27c090ce01e2",
	"matmul-dynamic": "blocks=685566 requests=4640 phase1=-1 makespan=185.96954364146177 per=0e510907c860ea6f",
	"matmul-2phases": "blocks=378455 requests=23008 phase1=980235 makespan=184.70064360364668 per=33e6f39a45320cc8",
}

// TestFlatLargePinned pins the flat simulations at the size the figures
// benchmark times them: blocks, requests, phase-1 tasks, the makespan's
// every bit and a hash of the per-processor metrics. Any change to the
// event loop or a flat strategy that moves a pop order or a draw shows
// here. It takes about a second, so -short skips it; the reference
// tests cover the loop at small sizes.
func TestFlatLargePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-size flat runs")
	}
	for _, c := range flatRuns(1000, 100, 100, 7) {
		t.Run(c.name, func(t *testing.T) {
			m, _ := c.run(t)
			got := fmt.Sprintf("blocks=%d requests=%d phase1=%d makespan=%.17g per=%016x",
				m.Blocks, m.Requests, m.Phase1Tasks, m.Makespan, hashPer(m))
			if want := flatPins[c.name]; got != want {
				t.Fatalf("got  %s\npinned %s", got, want)
			}
		})
	}
}

// BenchmarkRunFlat times sim.Run on the six flat configurations at the
// figures benchmark's size (-short: outer n=60, matmul n=12, p=10),
// scheduler construction included, and reports ns per task.
func BenchmarkRunFlat(b *testing.B) {
	on, mn, p := 1000, 100, 100
	if testing.Short() {
		on, mn, p = 60, 12, 10
	}
	for _, c := range flatRuns(on, mn, p, 7) {
		b.Run(c.name, func(b *testing.B) {
			var tasks int
			for i := 0; i < b.N; i++ {
				_, tasks = c.run(b)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tasks), "ns/task")
		})
	}
}
