package cholesky

import (
	"fmt"

	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/linalg"
)

// Apply runs the tile kernel of the encoded task ct on m in place.
// POTRF(k) also zeroes the upper tiles of row k, which no other task
// reads or writes, so a completed factorization leaves a clean L.
func Apply(ct core.Task, m *linalg.BlockedMatrix) error {
	t := dag.DecodeTask(ct, m.N)
	switch t.Kind {
	case potrf:
		if err := linalg.CholBlock(m.Block(t.K, t.K)); err != nil {
			return fmt.Errorf("cholesky: %s: %w", format(t), err)
		}
		for j := t.K + 1; j < m.N; j++ {
			clear(m.Block(t.K, j).Data)
		}
	case trsm:
		linalg.TrsmBlock(m.Block(t.I, t.K), m.Block(t.K, t.K))
	case update:
		if t.I == t.J {
			linalg.SyrkBlock(m.Block(t.I, t.I), m.Block(t.I, t.K))
		} else {
			linalg.GemmTransBlock(m.Block(t.I, t.J), m.Block(t.I, t.K), m.Block(t.J, t.K))
		}
	default:
		return fmt.Errorf("cholesky: unknown task kind %d", t.Kind)
	}
	return nil
}

// Replay applies a completion-order schedule sequentially to a real
// blocked SPD matrix, turning it into its Cholesky factor. Because
// the engine only completes a task when its dependencies completed
// (and serializes writes per tile), any sim.Metrics.Schedule is a
// valid sequential order; replaying it and checking the residual
// against the original matrix verifies the DAG bookkeeping end to end.
func Replay(schedule []core.Task, m *linalg.BlockedMatrix) error {
	if len(schedule) != taskCount(m.N) {
		return fmt.Errorf("cholesky: schedule has %d tasks, want %d for n=%d",
			len(schedule), taskCount(m.N), m.N)
	}
	for _, ct := range schedule {
		if err := Apply(ct, m); err != nil {
			return err
		}
	}
	return nil
}
