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

// BenchmarkCoordinatorStep is one whole simulated run per iteration at
// the three shapes the benchmark's `figures` workload simulates (its
// op_ms is the sum of the three): ns/task is the simulator's wall per
// task, nearly all of it TryAssign, and cand/pick the ready tasks one
// TryAssign scans, which is what that time is proportional to.
func BenchmarkCoordinatorStep(b *testing.B) {
	for _, c := range []struct {
		kernel string
		n      int
	}{{"cholesky", 48}, {"lu", 36}, {"qr", 36}} {
		b.Run(fmt.Sprintf("%s-n%d-p16-locality", c.kernel, c.n), func(b *testing.B) {
			model := benchSpeeds(16)
			var tasks, picks, scanned int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				drv := &scanCounter{Driver: benchDriver(b, c.kernel, "locality", c.n).(*dag.Driver)}
				b.StartTimer()
				tasks += len(sim.RunDriver(drv, model).Schedule)
				picks += drv.picks
				scanned += drv.scanned
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tasks), "ns/task")
			b.ReportMetric(float64(scanned)/float64(picks), "cand/pick")
		})
	}
}
