package cluster

import "testing"

// BenchmarkScenario is one whole virtual-time scenario per iteration,
// drained through the real service.Host in direct mode; polls/op
// divides ns/op into a per-poll cost at fleet scale. The herd rows are
// one heterogeneous outer run (2phases, batch 4, leases armed); past a
// few thousand workers most of the herd only registers and waits, so
// the large rows price the stampede and the parked majority's polls.
// The 1M row (a ~100 MB worker slab, tens of seconds an op) is skipped
// under -short.
func BenchmarkScenario(b *testing.B) {
	for _, c := range []struct {
		name string
		sc   func(seed uint64) Scenario
	}{
		{"1k", func(s uint64) Scenario { return herd(1000, 64, s) }},
		{"10k", func(s uint64) Scenario { return herd(10_000, 128, s) }},
		{"100k", Herd100k},
		{"federated-4x25k", Federated4x25k},
		{"1M", Herd1M},
	} {
		b.Run(c.name, func(b *testing.B) {
			if c.name == "1M" && testing.Short() {
				b.Skip("1M-worker fleet skipped under -short")
			}
			b.ReportAllocs()
			polls := 0
			for i := 0; i < b.N; i++ {
				res, err := Run(c.sc(uint64(i+1)), Direct)
				if err != nil {
					b.Fatal(err)
				}
				for _, rr := range res.Runs {
					if want := rr.Spec.N * rr.Spec.N; rr.Stats.Completed != want {
						b.Fatalf("run %s completed %d tasks, want %d", rr.Spec.RunID, rr.Stats.Completed, want)
					}
				}
				polls += res.Polls
			}
			b.ReportMetric(float64(polls)/float64(b.N), "polls/op")
		})
	}
}
