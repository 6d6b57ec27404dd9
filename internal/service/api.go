// Package service is the scheduler-as-a-service layer: it wraps the
// paper's master-side, demand-driven allocation state machines
// (core.Driver) in an HTTP/JSON daemon so that remote workers can pull
// task batches exactly the way the simulated and in-process workers
// do. The package provides three layers:
//
//   - Host: makes one single-goroutine core.Driver safe under
//     concurrent requests (one mutex, per-request batching — the
//     paper's multi-task-per-request knob).
//   - Registry: a sharded in-memory run table with lifecycle
//     (created → draining → complete → expired) and TTL garbage
//     collection.
//   - Server: the HTTP façade (stdlib net/http only) exposing run
//     creation, worker polling, stats and trace dumps under /v1.
//
// The wire format is JSON with strict decoding: unknown fields and
// trailing data are rejected, and every request/response type
// round-trips losslessly (see api_test.go).
//
// A fleet of Servers federates behind internal/federation's
// consistent-hash router: runs are placed on one owning host by their
// id, every per-run request is forwarded verbatim, and the fleet
// aggregates its metrics into one MetricsResponse (Hosts > 0, per-run
// Host labels). Nothing in this package knows about the topology —
// CreateRunRequest.ID lets the router (or any client) pin a run id,
// and the rest is upstream.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"hetsched/internal/stats"
	"hetsched/internal/trace"
)

// Kernel names accepted by CreateRunRequest.Kernel.
const (
	KernelOuter    = "outer"
	KernelMatmul   = "matmul"
	KernelCholesky = "cholesky"
	KernelLU       = "lu"
	KernelQR       = "qr"
)

// Run lifecycle states as reported by RunInfo.State.
const (
	StateCreated  = "created"  // no worker request served yet
	StateDraining = "draining" // assignments in progress
	StateComplete = "complete" // every task assigned and completed
	StateExpired  = "expired"  // deleted or timed out; awaiting GC
)

// Next statuses as reported by NextResponse.Status.
const (
	// StatusOK: the response carries an assignment (possibly zero
	// tasks with Blocks > 0 — the data-aware end-game flush).
	StatusOK = "ok"
	// StatusWait: nothing schedulable right now; the worker should
	// report completions or retry shortly (DAG kernels only).
	StatusWait = "wait"
	// StatusDone: the run is drained; the worker can retire.
	StatusDone = "done"
)

// CreateRunRequest is the body of POST /v1/runs.
type CreateRunRequest struct {
	// ID optionally pins the run identifier instead of letting the
	// server mint one. The federation router assigns IDs before
	// forwarding — consistent-hash placement is a pure function of the
	// id, so the id must exist before the owning host is known. IDs are
	// 1–64 characters of [A-Za-z0-9._-]; a duplicate answers 409.
	ID string `json:"id,omitempty"`
	// Kernel is one of outer | matmul | cholesky | lu | qr.
	Kernel string `json:"kernel"`
	// Strategy selects the allocation strategy. Flat kernels accept
	// random | sorted | dynamic | 2phases (default 2phases); DAG
	// kernels accept random | locality | critpath (default locality).
	Strategy string `json:"strategy,omitempty"`
	// N is the per-dimension block/tile count.
	N int `json:"n"`
	// P is the number of workers that will poll the run.
	P int `json:"p"`
	// Seed is the root random seed; the run's scheduler rng is derived
	// as rng.New(Seed).Split(), so two service runs with equal seeds
	// make bit-identical allocation decisions for equal request
	// orders. (cmd/sim spends its root's first split on the platform
	// speeds, so its stream differs from the service's for the same
	// seed.)
	Seed uint64 `json:"seed"`
	// Beta overrides the two-phase switch parameter for strategy
	// 2phases; 0 selects the speed-agnostic analytic optimum (§3.6).
	Beta float64 `json:"beta,omitempty"`
	// Batch is the target number of tasks served per worker request
	// (the paper's batching knob); 0 uses the server default.
	Batch int `json:"batch,omitempty"`
	// LeaseSeconds is how long a worker may hold a granted assignment
	// before the master reclaims its tasks and reassigns them to
	// surviving workers. 0 uses the server default; a negative value
	// explicitly disables reclamation for this run.
	LeaseSeconds float64 `json:"lease_seconds,omitempty"`
}

// RunInfo describes a run; returned by run creation, listing and GET
// /v1/runs/{id}.
type RunInfo struct {
	ID       string  `json:"id"`
	Kernel   string  `json:"kernel"`
	Strategy string  `json:"strategy"`
	N        int     `json:"n"`
	P        int     `json:"p"`
	Seed     uint64  `json:"seed"`
	Beta     float64 `json:"beta,omitempty"`
	Batch    int     `json:"batch"`
	// LeaseSeconds is the run's effective assignment lease (0 when
	// reclamation is disabled).
	LeaseSeconds float64   `json:"lease_seconds,omitempty"`
	Total        int       `json:"total"`
	State        string    `json:"state"`
	Created      time.Time `json:"created"`
}

// RunList is the body of GET /v1/runs.
type RunList struct {
	Runs []RunInfo `json:"runs"`
}

// NextRequest is the body of POST /v1/runs/{id}/next: worker w reports
// the tasks it finished since its previous poll and asks for more.
type NextRequest struct {
	Worker    int     `json:"worker"`
	Completed []int64 `json:"completed,omitempty"`
}

// NextResponse is the master's answer: an assignment when Status is
// "ok", otherwise empty.
type NextResponse struct {
	Status string  `json:"status"`
	Tasks  []int64 `json:"tasks,omitempty"`
	Blocks int     `json:"blocks"`
	// LeaseSeconds, when positive, is the deadline window of this
	// assignment: tasks not reported complete within it are reclaimed
	// and reassigned, and the late report answers 409.
	LeaseSeconds float64 `json:"lease_seconds,omitempty"`
}

// WorkerStats is the per-worker slice of StatsResponse.
type WorkerStats struct {
	// Worker is the worker's index.
	Worker int `json:"worker"`
	// Requests counts the batches granted to this worker.
	Requests int `json:"requests"`
	// Tasks counts the tasks this worker reported complete, not the
	// tasks granted to it.
	Tasks int `json:"tasks"`
	// Blocks counts the blocks shipped to this worker.
	Blocks int `json:"blocks"`
	// Reclaimed counts tasks taken back from this worker by lease
	// expiry.
	Reclaimed int `json:"reclaimed,omitempty"`
}

// StatsResponse is the body of GET /v1/runs/{id}/stats.
type StatsResponse struct {
	ID       string `json:"id"`
	Kernel   string `json:"kernel"`
	Strategy string `json:"strategy"`
	// Host names the schedd host serving the run. A single host leaves
	// it empty; the federation router's aggregated /v1/metrics fills it
	// so per-run rows are attributable across the fleet.
	Host  string `json:"host,omitempty"`
	State string `json:"state"`
	Total int    `json:"total"`
	// Assigned and Completed count tasks handed out and reported back
	// (a reclaimed task that is reassigned counts in Assigned again);
	// Outstanding = Assigned − Completed − Reclaimed is the in-flight
	// window.
	Assigned    int `json:"assigned"`
	Completed   int `json:"completed"`
	Outstanding int `json:"outstanding"`
	// Remaining is the driver's view: unallocated tasks for flat
	// kernels, uncompleted tasks for DAG kernels.
	Remaining int `json:"remaining"`
	// Reclaimed counts tasks whose lease expired and were taken back
	// for reassignment; LeaseSeconds echoes the run's lease (0 when
	// reclamation is disabled).
	Reclaimed    int     `json:"reclaimed"`
	LeaseSeconds float64 `json:"lease_seconds"`
	// Blocks is the communication volume so far (the paper's metric).
	Blocks int `json:"blocks"`
	// Requests counts granted worker interactions; Polls counts every
	// valid interaction (granted, wait and done alike), and
	// PollsPerSecond is Polls over the run's elapsed time — the
	// master-pressure gauge the batching knob exists to relieve.
	Requests       int     `json:"requests"`
	Polls          int     `json:"polls"`
	PollsPerSecond float64 `json:"polls_per_second"`
	// Phase1Tasks is the two-phase switch report, -1 when the strategy
	// is not two-phase (the sim.Metrics sentinel).
	Phase1Tasks int `json:"phase1_tasks"`
	// ElapsedSeconds is wall-clock time since run creation;
	// MakespanSeconds is time from creation to the last master
	// interaction (the makespan-so-far of the run).
	ElapsedSeconds  float64 `json:"elapsed_seconds"`
	MakespanSeconds float64 `json:"makespan_seconds"`
	// BatchTasks summarizes the per-assignment task counts actually
	// served (mean tracks the batching knob's effect); BatchSizes is
	// the full power-of-two histogram behind it (nil until the first
	// grant).
	BatchTasks stats.Summary   `json:"batch_tasks"`
	BatchSizes *BatchHistogram `json:"batch_sizes,omitempty"`
	Workers    []WorkerStats   `json:"workers"`
}

// BatchHistogram is a power-of-two histogram of served batch sizes:
// Counts[i] grants fell in (Le[i-1], Le[i]] tasks (Le[0] covers
// exactly size 1). Trailing empty buckets are trimmed, so Le always
// ends at the largest bucket actually hit.
type BatchHistogram struct {
	Le     []int   `json:"le"`
	Counts []int64 `json:"counts"`
}

// TraceResponse is the body of GET /v1/runs/{id}/trace: the recorded
// wall-clock segments, directly renderable by internal/trace.
type TraceResponse struct {
	ID    string       `json:"id"`
	Trace *trace.Trace `json:"trace"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Body is the response body that carries e, as the handlers' JSON
// encoder writes it.
func (e ErrorResponse) Body() []byte {
	b, _ := json.Marshal(e) // a struct of one string always encodes
	return append(b, '\n')
}

// DecodeStrict decodes exactly one JSON value from r into v, rejecting
// unknown fields and trailing data. All request bodies go through it.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// Validate checks the request's shape against the declared kernel,
// normalizing defaulted fields (strategy). It does not construct the
// scheduler; NewDriver does.
func (q *CreateRunRequest) Validate() error {
	if err := ValidateRunID(q.ID); q.ID != "" && err != nil {
		return err
	}
	switch q.Kernel {
	case KernelOuter, KernelMatmul, KernelCholesky, KernelLU, KernelQR:
	case "":
		return errors.New("missing kernel")
	default:
		return fmt.Errorf("unknown kernel %q", q.Kernel)
	}
	if q.N <= 0 || q.P <= 0 {
		return fmt.Errorf("n and p must be positive (got n=%d p=%d)", q.N, q.P)
	}
	if q.P > maxWorkers {
		return fmt.Errorf("p=%d exceeds the per-run worker cap of %d", q.P, maxWorkers)
	}
	if q.Batch < 0 {
		return fmt.Errorf("batch must be non-negative (got %d)", q.Batch)
	}
	if q.Batch > maxBatch {
		return fmt.Errorf("batch=%d exceeds the per-request cap of %d", q.Batch, maxBatch)
	}
	if q.Beta < 0 {
		return fmt.Errorf("beta must be non-negative (got %g)", q.Beta)
	}
	if q.LeaseSeconds > maxLeaseSeconds {
		return fmt.Errorf("lease_seconds=%g exceeds the cap of %d", q.LeaseSeconds, maxLeaseSeconds)
	}
	if q.Strategy == "" {
		switch q.Kernel {
		case KernelCholesky, KernelLU, KernelQR:
			q.Strategy = "locality"
		default:
			q.Strategy = "2phases"
		}
	}
	if total, limit := q.taskCount(), int64(maxTasks); total > limit {
		return fmt.Errorf("instance too large: %d tasks exceeds the per-run cap of %d", total, limit)
	}
	return nil
}

// ValidateRunID checks a client- or router-pinned run identifier:
// 1–64 characters of [A-Za-z0-9._-]. The charset keeps ids safe as
// URL path segments, Prometheus label values and log tokens; the
// length bound keeps the registry's inline FNV cheap.
func ValidateRunID(id string) error {
	if id == "" {
		return errors.New("empty run id")
	}
	if len(id) > maxIDLen {
		return fmt.Errorf("run id longer than %d characters", maxIDLen)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("run id %q contains %q (allowed: letters, digits, '.', '_', '-')", id, c)
		}
	}
	return nil
}

// maxIDLen bounds pinned run identifiers.
const maxIDLen = 64

// maxTasks and maxWorkers bound per-run memory: the processed bitset,
// pools and outstanding map scale with the task count, and the
// per-worker ownership bitsets, load counters and index pools scale
// with the worker count.
const (
	maxTasks = 1 << 24
	// maxWorkers admits the million-worker fleets the striped host is
	// sized for; per-worker state (grant slot, counters, ownership
	// bookkeeping) is a few hundred bytes, so the cap bounds a run's
	// worker memory at a few hundred MB.
	maxWorkers = 1 << 21
	// maxBatch bounds the work done (and response built) under one
	// Host lock acquisition; without it a single /next request could
	// drain a whole instance inside one critical section.
	maxBatch = 1 << 12
	// maxLeaseSeconds caps a run's assignment lease at one day: a
	// lease far past any plausible task time is indistinguishable from
	// the wedge-forever behavior leases exist to fix.
	maxLeaseSeconds = 86400
)

func (q *CreateRunRequest) taskCount() int64 {
	n := int64(q.N)
	if n > 1<<20 { // avoid overflow below; far over the cap regardless
		return maxTasks + 1
	}
	if q.Kernel == KernelOuter {
		return n * n
	}
	// matmul exactly n³; a conservative upper bound for the DAG
	// kernels (Θ(n³/6) Cholesky, Θ(n³/3) LU and QR).
	return n * n * n
}
