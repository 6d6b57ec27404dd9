package dag_test

import (
	"fmt"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/sim"
)

// scanCounter counts what the coordinator under a driver scans.
type scanCounter struct {
	*dag.Driver
	picks, scanned int
}

func (s *scanCounter) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	s.picks++
	s.scanned += s.Coordinator().ReadyLen()
	return s.Driver.NextInto(w, buf)
}

// BenchmarkCoordinatorStep is one whole simulated run per iteration:
// ns/task is the simulator's wall per task, nearly all of it
// TryAssign, cand/pick the ready tasks a pick has to choose from, and
// fill/pick the share of LocalityReady picks that compute every cost
// instead of replaying what changed since the worker's last pick. The
// shapes are the three the benchmark's `figures` workload simulates
// (its op_ms is the sum of the three); the 1000-worker Cholesky of the
// cluster acceptance scenario, where nearly every pick fills; and the
// small QR runs of the `abl-qr` experiment under each policy, where
// the ready set is a few dozen tasks.
func BenchmarkCoordinatorStep(b *testing.B) {
	type shape struct {
		kernel, strategy string
		n, p             int
	}
	shapes := []shape{{"cholesky", "locality", 48, 16}, {"lu", "locality", 36, 16}, {"qr", "locality", 36, 16}, {"cholesky", "locality", 32, 1000}}
	for _, p := range []int{4, 64} {
		for _, st := range []string{"random", "locality", "critpath"} {
			shapes = append(shapes, shape{"qr", st, 16, p})
		}
	}
	for _, c := range shapes {
		b.Run(fmt.Sprintf("%s-n%d-p%d-%s", c.kernel, c.n, c.p, c.strategy), func(b *testing.B) {
			model := benchSpeeds(c.p)
			var tasks, picks, scanned, fills int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				drv := &scanCounter{Driver: benchDriver(b, c.kernel, c.strategy, c.n, c.p).(*dag.Driver)}
				b.StartTimer()
				tasks += len(sim.RunDriver(drv, model).Schedule)
				picks += drv.picks
				scanned += drv.scanned
				_, f, _ := drv.Coordinator().IndexCounts()
				fills += f
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tasks), "ns/task")
			b.ReportMetric(float64(scanned)/float64(picks), "cand/pick")
			b.ReportMetric(float64(fills)/float64(picks), "fill/pick")
		})
	}
}
