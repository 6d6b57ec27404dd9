package experiments

import "testing"

// BenchmarkQuick regenerates every registered experiment in quick mode,
// one sub-benchmark per ID; run cmd/hpdc14 for full-scale figures.
func BenchmarkQuick(b *testing.B) {
	for _, id := range IDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := Registry[id].Run(Config{Seed: uint64(i + 1), Quick: true, Reps: 1})
				if len(res.Series) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}
