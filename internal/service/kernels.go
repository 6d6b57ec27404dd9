package service

import (
	"fmt"

	"hetsched/internal/cholesky"
	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/lu"
	"hetsched/internal/matmul"
	"hetsched/internal/outer"
	"hetsched/internal/qr"
	"hetsched/internal/rng"
)

// dagPolicies maps the wire strategy names of the DAG kernels to the
// shared ready-task selection policies.
var dagPolicies = map[string]dag.Policy{
	"random":   dag.RandomReady,
	"locality": dag.LocalityReady,
	"critpath": dag.CriticalPathReady,
}

// NewDriver constructs the core.Driver described by a validated
// CreateRunRequest. The scheduler rng is derived as
// rng.New(Seed).Split(), so any two drivers built from the same
// request — in this process or another — make bit-identical
// allocation decisions for equal request orders. (This is not the
// same stream cmd/sim uses: it spends the root's first split on
// platform speeds, which the service has no notion of.)
func NewDriver(q *CreateRunRequest) (core.Driver, error) {
	return BuildDriver(q, rng.New(q.Seed).Split())
}

// BuildDriver is NewDriver with the scheduler rng r supplied by the
// caller, who owns its derivation; q.Seed is not read.
func BuildDriver(q *CreateRunRequest, r *rng.PCG) (core.Driver, error) {
	switch q.Kernel {
	case KernelOuter:
		switch q.Strategy {
		case "random":
			return core.NewSchedulerDriver(outer.NewRandom(q.N, q.P, r)), nil
		case "sorted":
			return core.NewSchedulerDriver(outer.NewSorted(q.N, q.P, r)), nil
		case "dynamic":
			return core.NewSchedulerDriver(outer.NewDynamic(q.N, q.P, r)), nil
		case "2phases":
			if q.Beta > 0 {
				return core.NewSchedulerDriver(outer.NewTwoPhases(q.N, q.P, outer.ThresholdFromBeta(q.Beta, q.N), r)), nil
			}
			return core.NewSchedulerDriver(outer.NewTwoPhasesAuto(q.N, q.P, r)), nil
		}
	case KernelMatmul:
		switch q.Strategy {
		case "random":
			return core.NewSchedulerDriver(matmul.NewRandom(q.N, q.P, r)), nil
		case "sorted":
			return core.NewSchedulerDriver(matmul.NewSorted(q.N, q.P, r)), nil
		case "dynamic":
			return core.NewSchedulerDriver(matmul.NewDynamic(q.N, q.P, r)), nil
		case "2phases":
			if q.Beta > 0 {
				return core.NewSchedulerDriver(matmul.NewTwoPhases(q.N, q.P, matmul.ThresholdFromBeta(q.Beta, q.N), r)), nil
			}
			return core.NewSchedulerDriver(matmul.NewTwoPhasesAuto(q.N, q.P, r)), nil
		}
	case KernelCholesky, KernelLU, KernelQR:
		// All DAG kernels share the generic engine: only the kernel
		// definition differs.
		if policy, ok := dagPolicies[q.Strategy]; ok {
			var k dag.Kernel
			switch q.Kernel {
			case KernelCholesky:
				k = cholesky.NewKernel(q.N)
			case KernelLU:
				k = lu.NewKernel(q.N)
			default:
				k = qr.NewKernel(q.N)
			}
			return dag.NewDriver(k, q.P, policy, r), nil
		}
	}
	return nil, fmt.Errorf("kernel %q has no strategy %q", q.Kernel, q.Strategy)
}
