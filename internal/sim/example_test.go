package sim_test

import (
	"fmt"

	"hetsched/internal/flat"
	"hetsched/internal/outer"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

// ExampleRun simulates the speed-agnostic two-phase scheduler on a
// small fixed heterogeneous platform and reports the communication
// volume. Everything is deterministic given the seed.
func ExampleRun() {
	s := speeds.NewFixed([]float64{10, 20, 30, 40})
	sched := flat.NewTwoPhasesAuto(outer.Kernel, 40, 4, rng.New(7))
	m := sim.Run(sched, s)
	total := 0
	for _, t := range m.TasksPer {
		total += t
	}
	fmt.Printf("tasks processed: %d\n", total)
	fmt.Printf("blocks shipped:  %d\n", m.Blocks)
	fmt.Printf("phase-1 share:   %.1f%%\n", 100*float64(m.Phase1Tasks)/float64(total))
	// Output:
	// tasks processed: 1600
	// blocks shipped:  252
	// phase-1 share:   99.5%
}
