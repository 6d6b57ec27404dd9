package cluster

import (
	"fmt"
	"time"

	"hetsched/internal/rng"
	"hetsched/internal/speeds"
)

// SpeedKind selects the platform-speed distribution of a run's fleet,
// mirroring the paper's platform scenarios (§3.4, Fig. 7/8).
type SpeedKind int

const (
	// Uniform draws each worker's speed uniformly in [Lo, Hi) — the
	// paper's default platform ([10, 100)).
	Uniform SpeedKind = iota
	// Homogeneous gives every worker speed 100.
	Homogeneous
	// Set draws each worker's speed from the discrete Classes — the
	// set.3/set.5 scenarios of Fig. 8.
	Set
)

// SpeedSpec describes one run's heterogeneous fleet. Drift > 0 wraps
// the drawn speed vector in speeds.Drift, the paper's dyn.5 (0.05) and
// dyn.20 (0.20) scenarios: the speed of a worker is multiplied by a
// random factor in [1−Drift, 1+Drift] after every task it executes.
type SpeedSpec struct {
	Kind    SpeedKind
	Lo, Hi  float64
	Classes []float64
	Drift   float64
}

// build draws the speed model for a p-worker fleet from r. The zero
// SpeedSpec is the paper's default static uniform [10, 100) platform.
func (s SpeedSpec) build(p int, r *rng.PCG) speeds.Model {
	var vec []float64
	switch s.Kind {
	case Uniform:
		lo, hi := s.Lo, s.Hi
		if lo == 0 && hi == 0 {
			lo, hi = 10, 100
		}
		vec = speeds.UniformRange(p, lo, hi, r)
	case Homogeneous:
		vec = make([]float64, p)
		for k := range vec {
			vec[k] = 100
		}
	case Set:
		vec = speeds.FromSet(p, s.Classes, r)
	default:
		panic(fmt.Sprintf("cluster: unknown speed kind %d", s.Kind))
	}
	if s.Drift > 0 {
		return speeds.NewDrift(vec, s.Drift, r.Split())
	}
	return speeds.NewFixed(vec)
}

// maxSpeedFactor bounds how far above its initial value a worker's
// speed can climb during the run: speeds.Drift clamps at 4× the
// initial speed, static models never move. The invariant checker uses
// it to turn the kernel's total work into a hard virtual-makespan
// lower bound that holds even under drift.
func (s SpeedSpec) maxSpeedFactor() float64 {
	if s.Drift > 0 {
		return 4
	}
	return 1
}

// RunSpec is one scheduling run of a scenario: the workload shape the
// service's CreateRunRequest would carry, plus the fleet description
// and the virtual arrival instant.
type RunSpec struct {
	// RunID pins the run identifier. Required when Scenario.Hosts > 1:
	// consistent-hash placement is a pure function of the id, so a
	// hash-pinned federated scenario needs wall-clock-free ids.
	// Single-host scenarios may leave it empty (the service mints one).
	RunID string
	// Kernel and Strategy name the workload exactly as on the wire
	// (service.KernelOuter, ... ; empty Strategy takes the API
	// default).
	Kernel   string
	Strategy string
	// N is the per-dimension block/tile count, P the fleet size.
	N, P int
	// Seed is the run's scheduler seed (the service derives the
	// allocation rng as rng.New(Seed).Split(), identically in both
	// harness modes).
	Seed uint64
	// Batch is the tasks-per-poll target (0 → 1, the server default).
	Batch int
	// LeaseSeconds arms assignment reclamation, in *virtual* seconds;
	// 0 disables it. It is carried in wire units (float seconds) so
	// both harness modes derive the identical time.Duration.
	LeaseSeconds float64
	// ArriveAt is the virtual instant the run is created and its fleet
	// starts polling. Staggering arrivals scripts bursty load; equal
	// arrivals are a thundering herd.
	ArriveAt time.Duration
	// Speeds describes the fleet's heterogeneity.
	Speeds SpeedSpec
}

// EventKind scripts a fault or perturbation at a virtual instant.
type EventKind int

const (
	// Crash kills the worker: in-flight work is lost, pending reports
	// are never sent — SIGKILL between grant and completion. Only a
	// lease reclaim can recover its tasks.
	Crash EventKind = iota
	// Restart revives a crashed worker with empty hands; it rejoins
	// the polling loop immediately.
	Restart
	// Slow multiplies the worker's per-task service time by Factor
	// from now on (1 restores full speed) — the straggler knob.
	Slow
	// Partition makes the master unreachable for Duration: the worker
	// keeps executing what it holds but cannot report or poll until
	// the partition heals; a report that outlives its lease then draws
	// 409 and the batch is abandoned.
	Partition
	// HostCrash kills an entire schedd host (federated scenarios
	// only): every run placed on it loses its master. In a journal-less
	// topology the crash is terminal — workers retire as their polls
	// discover the outage and the run is reported Lost. With
	// Scenario.Journal the crash is survivable: workers keep retrying
	// their 503s, and a later RingChange scavenges the dead host's runs
	// from its journal directory into their new ring owners
	// (Router.RecoverHost), after which the fleet drains to completion
	// with zero lost runs. A journaled single-host master recovers
	// in-place instead — that is MasterCrash.
	HostCrash
	// Checkpoint seals the master's journal generation and snapshots
	// every registered run (Registry.Checkpoint), bounding how much
	// tail a later MasterCrash replays. Journaled single-host
	// scenarios only; a pure durability action, invisible to the
	// outcome hash.
	Checkpoint
	// MasterCrash kills the journaled master mid-run — SIGKILL, no
	// flush beyond what group commit already wrote — and restarts it
	// from its journal directory: snapshots load, the tail replays
	// through the same apply path live traffic uses, and the fleet
	// keeps polling against the recovered state. The scenario outcome
	// must hash bit-identically to an uninterrupted run; the
	// determinism tests pin that. Journaled single-host scenarios
	// only.
	MasterCrash
	// Migrate moves one run (Event.Run) to the host Event.Host via the
	// router's explicit-move primitive (Router.MigrateRun): the source
	// fences the run, ships its snapshot+tail transfer stream, the
	// destination replays it through the recovery apply path, and the
	// router's override table keeps the run routable off-ring. The
	// outcome must hash identically to the unmigrated scenario —
	// migration moves state, never mutates it. Federated scenarios only.
	Migrate
	// RingChange steps the placement epoch to Event.Epoch
	// (Router.SetEpoch): every run whose ring owner moved is migrated
	// in one handoff. If a host has crashed (HostCrash, journaled), the
	// ring change doubles as the death path: the dead host's runs are
	// scavenged from its journal directory into their new owners
	// (Router.RecoverHost). Federated scenarios only.
	RingChange
)

func (k EventKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Restart:
		return "restart"
	case Slow:
		return "slow"
	case Partition:
		return "partition"
	case HostCrash:
		return "host-crash"
	case Checkpoint:
		return "checkpoint"
	case MasterCrash:
		return "master-crash"
	case Migrate:
		return "migrate"
	case RingChange:
		return "ring-change"
	}
	return "?"
}

// Event is one scripted perturbation of a scenario.
type Event struct {
	// At is the virtual instant the event fires.
	At time.Duration
	// Run indexes Scenario.Runs; Worker the run's fleet. Ignored by
	// HostCrash and RingChange; Migrate uses Run but not Worker.
	Run, Worker int
	// Host is the HostCrash target or the Migrate destination, an
	// index into the federated topology ([0, Scenario.Hosts)).
	Host int
	Kind EventKind
	// Factor is the Slow service-time multiplier (≥ 1; 1 restores).
	Factor float64
	// Duration is the Partition length.
	Duration time.Duration
	// Epoch is the RingChange target placement epoch.
	Epoch uint64
}

// SubKind scripts a subscriber's drain discipline against the event
// bus — the observability plane's load shapes, from well-behaved to
// adversarial.
type SubKind int

const (
	// SubFast drains after every harness event: it observes the full
	// ledger and never drops.
	SubFast SubKind = iota
	// SubSlow drains on a virtual cadence (DrainEvery); a small Buffer
	// plus a fast run makes it shed load through drops.
	SubSlow
	// SubStalled never drains until the scenario ends — the
	// wedged-reader worst case. Everything past its buffer is dropped;
	// the scheduler must not notice (the 0-vs-N hash test pins that).
	SubStalled
	// SubDisconnecting detaches at DisconnectAt and resubscribes at
	// ReconnectAt from the last sequence number it saw — the SSE
	// Last-Event-ID reconnect, with ring eviction during the outage
	// surfacing as drops.
	SubDisconnecting
)

func (k SubKind) String() string {
	switch k {
	case SubFast:
		return "fast"
	case SubSlow:
		return "slow"
	case SubStalled:
		return "stalled"
	case SubDisconnecting:
		return "disconnecting"
	}
	return "?"
}

// SubscriberSpec attaches one scripted event-bus subscriber to a run.
// Subscribers are pure observers: they subscribe at the run's arrival
// instant (sequence 0) and feed nothing back into the loop, so a
// scenario's outcome hash is identical with or without them.
type SubscriberSpec struct {
	// Run indexes Scenario.Runs.
	Run  int
	Kind SubKind
	// Buffer is the subscriber's bounded queue capacity (0 takes the
	// bus default; the events package clamps tiny values to its
	// minimum).
	Buffer int
	// DrainEvery is the SubSlow polling cadence (default 100ms
	// virtual).
	DrainEvery time.Duration
	// DisconnectAt/ReconnectAt are the SubDisconnecting outage window,
	// as virtual instants (like Event.At).
	DisconnectAt, ReconnectAt time.Duration
	// Record retains every event seen in the ledger's Events slice —
	// the JSONL dump cmd/clustersim -events uses. Off by default: a
	// 10k-worker scenario's ledger is counts, not bodies.
	Record bool
}

// Scenario is a complete scripted experiment: a set of runs with
// their fleets, a fault script, scripted event subscribers, and the
// harness knobs.
type Scenario struct {
	Name string
	// Seed feeds everything the scenario itself randomizes (platform
	// speed draws, in run order). Scheduler randomness comes from each
	// RunSpec.Seed, exactly as over the wire.
	Seed uint64
	// Hosts selects the federated topology: that many schedd hosts
	// behind a consistent-hash router, runs placed by their pinned
	// RunID. 0 or 1 is a single host: a one-host federation.
	Hosts int
	// RingEpoch is the placement-ring epoch (federation.NewRing):
	// pinned here so a federated scenario's placement — and therefore
	// its outcome hash — is a pure function of the scenario.
	RingEpoch uint64
	Runs      []RunSpec
	// Journal arms the durable write-ahead journal: every mutation is
	// journaled to a scenario-private temp directory (one subdirectory
	// per host in a federated topology), which legalizes the Checkpoint
	// and MasterCrash script events on a single host and makes
	// federated HostCrash survivable (a RingChange then scavenges the
	// dead host's runs — see HostCrash). Journaling is invisible to the
	// outcome hash — a journaled scenario (crashes included) hashes
	// identically to its journal-less twin.
	Journal bool
	// Events is the fault script; it need not be sorted.
	Events []Event
	// Subscribers is the observability script: scripted event-bus
	// consumers attached to runs at arrival.
	Subscribers []SubscriberSpec
	// WaitDelay is how long a worker that drew "wait" backs off before
	// its wake-up retry (default 20ms virtual). It trades virtual-time
	// fidelity against event count.
	WaitDelay time.Duration
	// JanitorEvery schedules Registry.Sweep every interval (default
	// 1s virtual; < 0 disables the janitor — poll-path reclaim only).
	JanitorEvery time.Duration
	// TTL is the registry idle TTL (0 disables time-based expiry,
	// which is the default: scenarios that want GC set it explicitly).
	TTL time.Duration
	// Stagger offsets each worker's first poll by Worker×Stagger after
	// its run arrives; 0 is a thundering herd — the whole fleet's
	// registration polls land on the same virtual instant.
	Stagger time.Duration
	// Deadline aborts the scenario when virtual time passes it
	// (default 1h virtual): a run that cannot finish — every worker
	// dead with leases disabled, say — is reported as wedged instead
	// of looping forever.
	Deadline time.Duration
}

// withDefaults fills the knob defaults without mutating s.
func (s Scenario) withDefaults() Scenario {
	if s.WaitDelay <= 0 {
		s.WaitDelay = 20 * time.Millisecond
	}
	if s.JanitorEvery == 0 {
		s.JanitorEvery = time.Second
	}
	if s.Deadline <= 0 {
		s.Deadline = time.Hour
	}
	return s
}
