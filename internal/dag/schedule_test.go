package dag_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/service"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

// benchSpeeds is the fixed heterogeneous platform the pinned schedules
// and BenchmarkCoordinatorStep run on: p speeds spread over [10, 100).
func benchSpeeds(p int) *speeds.Fixed {
	s := make([]float64, p)
	for i := range s {
		s[i] = float64(10 + (i*37)%90)
	}
	return speeds.NewFixed(s)
}

// benchDriver builds the driver the benchmark's `figures` workload
// builds: the served construction path, p = 16, seed 7.
func benchDriver(tb testing.TB, kernel, strategy string, n int) core.Driver {
	drv, err := service.NewDriver(&service.CreateRunRequest{Kernel: kernel, Strategy: strategy, N: n, P: 16, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	return drv
}

// TestBenchmarkScaleSchedules pins, at the sizes the benchmark
// simulates, the whole completion order and the communication volume
// of every kernel × policy. The ready set's order and the number of
// tie-break draws are part of each value: a coordinator change that
// scans in another order, or draws once more or less, moves them all.
// Values taken with the coordinator of PR 3 (int32 version and cache
// arrays, one Kernel.InputTiles call per candidate per poll).
func TestBenchmarkScaleSchedules(t *testing.T) {
	for _, c := range []struct {
		kernel, strategy string
		n                int
		hash             string
		blocks           int
	}{
		{"cholesky", "random", 48, "558d7af9f4ff9c35", 31369},
		{"cholesky", "locality", 48, "26c41ab52772ef6d", 11499},
		{"cholesky", "critpath", 48, "4d78908d3b415019", 11363},
		{"lu", "random", 36, "64b16d90c58c4c31", 28202},
		{"lu", "locality", 36, "c69090bf7ed8245d", 10611},
		{"lu", "critpath", 36, "10964a6abad53ead", 10912},
		{"qr", "random", 36, "738afdc61d6d6257", 35923},
		{"qr", "locality", 36, "fcfc25d346dcac03", 13097},
		{"qr", "critpath", 36, "802033683391b2e3", 16361},
	} {
		t.Run(fmt.Sprintf("%s-%s-n%d", c.kernel, c.strategy, c.n), func(t *testing.T) {
			m := sim.RunDriver(benchDriver(t, c.kernel, c.strategy, c.n), benchSpeeds(16))
			h := fnv.New64a()
			var b [8]byte
			for _, task := range m.Schedule {
				binary.LittleEndian.PutUint64(b[:], uint64(task))
				h.Write(b[:])
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != c.hash || m.Blocks != c.blocks {
				t.Fatalf("schedule %s, %d blocks; pinned %s, %d", got, m.Blocks, c.hash, c.blocks)
			}
		})
	}
}
