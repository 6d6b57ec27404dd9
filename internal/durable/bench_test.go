package durable

import (
	"testing"

	"hetsched/internal/core"
)

// BenchmarkAppendPollCommit prices the journal's share of one poll in
// isolation: framing a steady-state MutPoll record into the commit
// buffer and handing it to the kernel with one write(2) (fsync
// amortized per SyncEvery bytes). The delta between the lease and
// journal rows of internal/service's BenchmarkHostNext should track
// this number.
func BenchmarkAppendPollCommit(b *testing.B) {
	jr, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer jr.Close()
	tasks := []core.Task{101, 2002, 30003, 4004}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jr.AppendPoll("bench-1", uint64(i+1), int64(i)*1000, int32(i%64), tasks)
		if err := jr.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
