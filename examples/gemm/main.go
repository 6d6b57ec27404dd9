// Gemm: run a real blocked matrix multiplication C = A·B through the
// paper's DynamicMatrix2Phases scheduler on a pool of worker
// goroutines, with heterogeneity emulated by throttling, and verify
// the numerical result against a serial reference product.
//
// This is the "runtime system" view of the paper: the very same
// scheduler state machine that the event simulator measures also
// drives an actual computation. The example exits 1 if the product
// does not match the reference.
package main

import (
	"fmt"
	"os"
	"time"

	"hetsched/internal/analysis"
	"hetsched/internal/exec"
	"hetsched/internal/flat"
	"hetsched/internal/linalg"
	"hetsched/internal/matmul"
	"hetsched/internal/rng"
	"hetsched/internal/speeds"
)

func main() {
	const (
		n    = 16 // blocks per dimension → n³ = 4096 tasks
		l    = 8  // block size → 128×128 matrices
		p    = 8  // workers
		seed = 3
	)

	root := rng.New(seed)
	s := speeds.UniformRange(p, 10, 100, root.Split())
	rs := speeds.Relative(s)

	a := linalg.NewBlockedMatrix(n, l)
	b := linalg.NewBlockedMatrix(n, l)
	a.Fill(root.Split())
	b.Fill(root.Split())

	beta, _ := analysis.OptimalBetaMatrix(rs, n)
	sched := flat.NewTwoPhases(matmul.Kernel, n, p, matmul.Kernel.ThresholdFromBeta(beta, n), root.Split())

	start := time.Now()
	c, res := exec.RunGemm(sched, a, b, exec.Options{
		Workers:  p,
		Speeds:   s,
		TaskCost: 200 * time.Microsecond,
	})
	elapsed := time.Since(start)

	ref := linalg.ReferenceGemm(a, b)
	diff := c.MaxAbsDiff(ref)

	lb := analysis.LowerBoundMatrix(rs, n)
	fmt.Printf("C = A·B with %d×%d blocks of %d×%d, %d tasks, %d workers\n", n, n, l, l, n*n*n, p)
	fmt.Printf("scheduler            %s (beta* = %.3f)\n", sched.Name(), beta)
	fmt.Printf("wall time            %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("communication        %d blocks (%.3f × lower bound)\n", res.Blocks, float64(res.Blocks)/lb)
	fmt.Printf("max |C - C_ref|      %.3e\n", diff)
	if diff >= 1e-9 {
		fmt.Println("RESULT MISMATCH ✗")
		os.Exit(1)
	}
	fmt.Println("result verified against the serial reference ✓")

	fmt.Printf("\nper-worker tasks (speed-proportional load balancing):\n")
	total := 0
	for _, t := range res.TasksPer {
		total += t
	}
	for w, t := range res.TasksPer {
		fmt.Printf("  worker %d: speed %5.1f → %5d tasks (%.1f%%, ideal %.1f%%)\n",
			w, s[w], t, 100*float64(t)/float64(total), 100*rs[w])
	}
}
