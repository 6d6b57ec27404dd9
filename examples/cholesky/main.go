// Cholesky: the paper's future-work direction (§5) made runnable —
// dynamic, data-aware scheduling of a kernel with dependencies.
//
// The example simulates the tiled Cholesky task DAG under three
// ready-task selection policies, then replays the locality-aware
// schedule on a real SPD matrix and verifies A = L·Lᵀ numerically. It
// exits 1 if the verification fails.
package main

import (
	"fmt"
	"os"

	"hetsched/internal/cholesky"
	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/linalg"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

func main() {
	const (
		n    = 12 // tiles per dimension → 364 tasks
		l    = 6  // tile size → 72×72 matrix
		p    = 8  // processors
		seed = 21
	)

	root := rng.New(seed)
	s := speeds.UniformRange(p, 10, 100, root.Split())
	sumSpeed := 0.0
	for _, v := range s {
		sumSpeed += v
	}

	fmt.Printf("tiled Cholesky: %d×%d tiles (%d tasks), %d heterogeneous processors\n\n",
		n, n, cholesky.Kernel.Tasks(n), p)
	fmt.Printf("%-20s %12s %12s %12s\n", "policy", "tiles sent", "makespan", "efficiency")

	var locality []core.Task
	for _, pol := range []dag.Policy{dag.RandomReady, dag.LocalityReady, dag.CriticalPathReady} {
		drv := dag.NewDriver(cholesky.Kernel, n, p, pol, root.Split())
		m := sim.RunDriver(drv, speeds.NewFixed(s))
		efficiency := cholesky.Kernel.TotalWork(n) / sumSpeed / m.Makespan
		fmt.Printf("%-20s %12d %12.3f %12.3f\n", pol, m.Blocks, m.Makespan, efficiency)
		if pol == dag.LocalityReady {
			locality = m.Schedule
		}
	}

	// Verify the locality schedule numerically.
	a := linalg.NewBlockedMatrix(n, l)
	linalg.RandomSPD(a, root.Split())
	work := a.Clone()
	if err := cholesky.Kernel.Replay(locality, work); err != nil {
		fmt.Println("replay failed:", err)
		os.Exit(1)
	}
	res := linalg.CholeskyResidual(a, work)
	fmt.Printf("\nreplayed the LocalityReady schedule on a real %d×%d SPD matrix\n", n*l, n*l)
	fmt.Printf("max |A − L·Lᵀ| = %.3e", res)
	if res >= 1e-8 {
		fmt.Println("  — MISMATCH ✗")
		os.Exit(1)
	}
	fmt.Println("  — factorization verified ✓")
}
