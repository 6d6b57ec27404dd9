package dag

import (
	"fmt"
	"strings"

	"hetsched/internal/core"
	"hetsched/internal/linalg"
	"hetsched/internal/rng"
)

// Numerics is what a kernel computes: its tile kernels on a real
// blocked matrix, a matrix it factors and the residual of the result.
type Numerics struct {
	// Apply runs the tile kernel of the encoded task ct on m in place.
	Apply func(ct core.Task, m *linalg.BlockedMatrix) error
	// Fill draws a matrix the kernel factors.
	Fill func(m *linalg.BlockedMatrix, r *rng.PCG)
	// Residual is the largest entry of A minus the product of the
	// factors, for a factored in place from a; Label names it, as in
	// "|A − L·Lᵀ|".
	Residual func(a, factored *linalg.BlockedMatrix) float64
	Label    string
}

// Replay applies a completion-order schedule of k sequentially to m,
// factoring it in place. The engine completes a task only after its
// dependencies, so any sim.Metrics.Schedule is a valid order: its
// residual against the original matrix verifies the DAG bookkeeping.
func (k *Kernel) Replay(schedule []core.Task, m *linalg.BlockedMatrix) error {
	if want := k.Tasks(m.N); len(schedule) != want {
		return fmt.Errorf("%s: schedule has %d tasks, want %d for n=%d", strings.ToLower(k.Name), len(schedule), want, m.N)
	}
	for _, ct := range schedule {
		if err := k.Numerics.Apply(ct, m); err != nil {
			return err
		}
	}
	return nil
}
