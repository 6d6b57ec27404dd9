package lu

import (
	"fmt"

	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/linalg"
)

// Apply runs the tile kernel of the encoded task ct on m in place.
func Apply(ct core.Task, m *linalg.BlockedMatrix) error {
	t := dag.DecodeTask(ct, m.N)
	switch t.Kind {
	case getrf:
		if err := linalg.GetrfBlock(m.Block(t.K, t.K)); err != nil {
			return fmt.Errorf("lu: %s: %w", format(t), err)
		}
	case trsmRow:
		linalg.TrsmLowerUnitBlock(m.Block(t.K, t.J), m.Block(t.K, t.K))
	case trsmCol:
		linalg.TrsmUpperBlock(m.Block(t.I, t.K), m.Block(t.K, t.K))
	case gemm:
		linalg.GemmSubBlock(m.Block(t.I, t.J), m.Block(t.I, t.K), m.Block(t.K, t.J))
	default:
		return fmt.Errorf("lu: unknown task kind %d", t.Kind)
	}
	return nil
}

// Replay applies a completion-order schedule sequentially to a real
// blocked matrix, turning it into its packed L\U factors; any
// sim.Metrics.Schedule of the LU kernel replays correctly, which
// verifies the DAG bookkeeping numerically.
func Replay(schedule []core.Task, m *linalg.BlockedMatrix) error {
	if len(schedule) != taskCount(m.N) {
		return fmt.Errorf("lu: schedule has %d tasks, want %d for n=%d", len(schedule), taskCount(m.N), m.N)
	}
	for _, ct := range schedule {
		if err := Apply(ct, m); err != nil {
			return err
		}
	}
	return nil
}
