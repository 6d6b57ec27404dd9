package service

import (
	"fmt"
	"slices"

	"hetsched/internal/cholesky"
	"hetsched/internal/core"
	"hetsched/internal/dag"
	"hetsched/internal/flat"
	"hetsched/internal/lu"
	"hetsched/internal/matmul"
	"hetsched/internal/outer"
	"hetsched/internal/qr"
	"hetsched/internal/rng"
)

// Kernel is everything known about one kernel by name: its strategies
// and its engine value, which holds the bounds a run of it is checked
// against. Run creation, the cluster harness and cmd/sim all read
// Kernels, so a kernel, or a rule about every kernel, is written once.
type Kernel struct {
	Name       string
	Strategies []Strategy
	Default    string // the strategy an empty one takes
	// Flat is a flat kernel's engine value and analysis, DAG a DAG
	// kernel's task graph and numerics: exactly one is set.
	Flat      *flat.Kernel
	DAG       *dag.Kernel
	TotalWork func(n int) float64 // in the units its tasks cost
	// admitTasks is the task count run creation admits n on: exact for
	// the flat kernels, the conservative n³ for the DAG kernels.
	admitTasks func(n int64) int64
}

// Strategy is one wire strategy name and how to build its driver.
type Strategy struct {
	Name  string
	build builder
}

type builder func(q *CreateRunRequest, r *rng.PCG) core.Driver

// Kernels holds one entry per kernel, in the order the CLI lists them.
var Kernels = []Kernel{
	flatKernel(KernelOuter, outer.Kernel),
	flatKernel(KernelMatmul, matmul.Kernel),
	dagKernel(KernelCholesky, cholesky.Kernel),
	dagKernel(KernelLU, lu.Kernel),
	dagKernel(KernelQR, qr.Kernel),
}

// LookupKernel returns the Kernels entry named name, or nil.
func LookupKernel(name string) *Kernel {
	if i := slices.IndexFunc(Kernels, func(k Kernel) bool { return k.Name == name }); i >= 0 {
		return &Kernels[i]
	}
	return nil
}

// Coster prices a task of an instance of size n as the simulator
// does, without touching the run's coordinator; nil for the flat
// kernels (every task costs 1).
func (k *Kernel) Coster(n int) func(core.Task) float64 {
	if k.DAG == nil {
		return nil
	}
	cost := k.DAG.Cost
	return func(t core.Task) float64 { return cost(dag.DecodeTask(t, n)) }
}

// dagKernel is the entry of a DAG kernel: its strategies run the
// generic engine under one of the ready-task policies.
func dagKernel(name string, k *dag.Kernel) Kernel {
	policy := func(policy dag.Policy) builder {
		return func(q *CreateRunRequest, r *rng.PCG) core.Driver { return dag.NewDriver(k, q.N, q.P, policy, r) }
	}
	return Kernel{
		Name: name,
		Strategies: []Strategy{
			{"random", policy(dag.RandomReady)},
			{"locality", policy(dag.LocalityReady)},
			{"critpath", policy(dag.CriticalPathReady)},
		},
		Default:    "locality",
		DAG:        k,
		TotalWork:  k.TotalWork,
		admitTasks: func(n int64) int64 { return n * n * n },
	}
}

// flatKernel is the entry of a flat kernel: the strategies of
// internal/flat on k. 2phases takes its switch threshold from a
// positive Beta, and lets the analysis choose it when Beta is 0.
func flatKernel(name string, k *flat.Kernel) Kernel {
	return Kernel{
		Name: name,
		Strategies: []Strategy{
			{"random", func(q *CreateRunRequest, r *rng.PCG) core.Driver {
				return core.NewSchedulerDriver(flat.NewRandom(k, q.N, q.P, r))
			}},
			{"sorted", func(q *CreateRunRequest, r *rng.PCG) core.Driver {
				return core.NewSchedulerDriver(flat.NewSorted(k, q.N, q.P, r))
			}},
			{"dynamic", func(q *CreateRunRequest, r *rng.PCG) core.Driver {
				return core.NewSchedulerDriver(flat.NewDynamic(k, q.N, q.P, r))
			}},
			{"2phases", func(q *CreateRunRequest, r *rng.PCG) core.Driver {
				if q.Beta > 0 {
					return core.NewSchedulerDriver(flat.NewTwoPhases(k, q.N, q.P, k.ThresholdFromBeta(q.Beta, q.N), r))
				}
				return core.NewSchedulerDriver(flat.NewTwoPhasesAuto(k, q.N, q.P, r))
			}},
		},
		Default:    "2phases",
		Flat:       k,
		TotalWork:  func(n int) float64 { return float64(k.Tasks(n)) },
		admitTasks: func(n int64) int64 { return int64(k.Tasks(int(n))) },
	}
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
	if k := LookupKernel(q.Kernel); k != nil {
		if i := slices.IndexFunc(k.Strategies, func(s Strategy) bool { return s.Name == q.Strategy }); i >= 0 {
			return k.Strategies[i].build(q, r), nil
		}
	}
	return nil, fmt.Errorf("kernel %q has no strategy %q", q.Kernel, q.Strategy)
}
