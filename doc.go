// Package hetsched reproduces Beaumont & Marchal, "Analysis of Dynamic
// Scheduling Strategies for Matrix Multiplication on Heterogeneous
// Platforms" (HPDC 2014): demand-driven randomized schedulers for the
// outer product and matrix multiplication that minimize communication
// volume, together with the mean-field ODE analysis that tunes them.
//
// The library lives under internal/:
//
//   - internal/core     — scheduler/driver abstraction (the paper's contribution, kernel-agnostic part)
//     and core.Master, the demand-driven master the simulator and the
//     runtime both step
//   - internal/flat     — the flat kernels' engine: Random/Sorted/2Phases,
//     the instance and its state codec, on a kernel's flat.Kernel
//   - internal/outer, internal/matmul — the two flat kernels: charge
//     rule and data-aware strategy (Algorithms 1 and 3)
//   - internal/dag      — generic dependency-aware engine (ready set with
//     each task's tile ids, one bitset per worker of the tiles it
//     lacks, policies) behind the DAG kernels
//   - internal/cholesky, internal/lu, internal/qr — DAG kernels: each a
//     dag.Kernel value and, for Cholesky and LU, Apply and Replay
//   - internal/analysis — closed-form ODE solutions, lower bounds, β optimization
//   - internal/sim      — event-driven heterogeneous platform simulator
//     (one event loop: sim.Run for flat schedulers, sim.RunDriver for
//     any driver)
//   - internal/exec     — real concurrent runtime executing block arithmetic
//   - internal/service  — scheduler-as-a-service HTTP daemon (schedd)
//   - internal/pollserve — the request loop both schedd modes listen
//     through: one read and one write per worker poll, net/http for
//     every other request
//   - internal/federation — consistent-hash run placement over a fleet
//     of schedd hosts and the allocation-free pass-through router
//   - internal/cluster  — deterministic virtual-time cluster harness
//     driving the real service with scripted heterogeneous fleets
//     (crashes, stragglers, partitions, bursty arrivals), single-host
//     or federated behind the router
//   - internal/experiments — regeneration of every figure of the paper,
//     with deterministic parallel replication (replicate.go)
//
// Entry points: cmd/hpdc14 (figures), cmd/sim (one run of any kernel),
// cmd/schedd (the service daemon), cmd/clustersim (scripted cluster
// scenarios), examples/
// (library usage), and bench/ (the end-to-end benchmark, `go run
// ./bench`). See README.md and DESIGN.md.
package hetsched
