package cluster

import (
	"fmt"
	"time"

	"hetsched/internal/federation"
	"hetsched/internal/service"
)

// This file is the scenario corpus: the canned heterogeneous-fleet
// scripts the go-test matrix and cmd/clustersim share. Each
// constructor returns a self-contained Scenario; callers pick a mode
// and hand it to Run. The corpus is where the chaos matrix that used
// to live in internal/service's real-goroutine tests now scales out —
// thousands of workers, scripted faults, exact determinism — while
// one real-goroutine smoke test per kernel remains over there.

// HeterogeneousDrift runs one DAG kernel on a fleet drawn from the
// paper's default [10, 100) platform with per-task speed drift — the
// dyn.5 (amplitude 0.05) and dyn.20 (0.20) scenarios of Fig. 8,
// finally end-to-end against the real service.
func HeterogeneousDrift(kernel string, n, p int, amplitude float64, seed uint64) Scenario {
	return Scenario{
		Name: "drift-" + kernel,
		Seed: seed,
		Runs: []RunSpec{{
			Kernel: kernel, N: n, P: p, Seed: seed + 1,
			LeaseSeconds: 30,
			Speeds:       SpeedSpec{Kind: Uniform, Drift: amplitude},
		}},
	}
}

// CrashHeavy kills a slice of the fleet mid-run (one crash wave, no
// restarts) so every lost batch must come back through lease
// reclamation; half the victims return later and must re-integrate
// cleanly.
func CrashHeavy(kernel string, n, p, victims int, seed uint64) Scenario {
	sc := Scenario{
		Name: "crash-heavy-" + kernel,
		Seed: seed,
		Runs: []RunSpec{{
			Kernel: kernel, N: n, P: p, Seed: seed + 1,
			LeaseSeconds: 5,
			Speeds:       SpeedSpec{Kind: Uniform},
		}},
	}
	for v := 0; v < victims; v++ {
		// Stagger the wave so victims die holding different DAG levels.
		sc.Events = append(sc.Events, Event{
			At: time.Duration(v+1) * 100 * time.Millisecond, Worker: v, Kind: Crash,
		})
		if v%2 == 0 {
			sc.Events = append(sc.Events, Event{
				At: 20*time.Second + time.Duration(v)*time.Second, Worker: v, Kind: Restart,
			})
		}
	}
	return sc
}

// JanitorRace wedges a run — the worker holding the root task crashes
// immediately — and leaves recovery to the race between the periodic
// Registry.Sweep and the surviving workers' poll-path reclaim, both
// firing in virtual time.
func JanitorRace(kernel string, n, p int, seed uint64) Scenario {
	return Scenario{
		Name: "janitor-race-" + kernel,
		Seed: seed,
		Runs: []RunSpec{{
			Kernel: kernel, N: n, P: p, Seed: seed + 1,
			LeaseSeconds: 2,
			Speeds:       SpeedSpec{Kind: Uniform},
		}},
		// The root-task holder dies instantly after its first grant.
		Events:       []Event{{At: time.Microsecond, Worker: 0, Kind: Crash}},
		JanitorEvery: 2 * time.Second, // lands right on the expiry boundary
	}
}

// ThunderingHerd registers several runs whose full fleets all poll at
// the same virtual instant, plus a second burst arriving mid-flight —
// the registration-stampede shape of "heavy traffic".
func ThunderingHerd(p int, seed uint64) Scenario {
	return Scenario{
		Name: "thundering-herd",
		Seed: seed,
		Runs: []RunSpec{
			{Kernel: service.KernelOuter, Strategy: "2phases", N: 24, P: p, Seed: seed + 1, Batch: 4,
				Speeds: SpeedSpec{Kind: Uniform}},
			{Kernel: service.KernelCholesky, N: 12, P: p / 2, Seed: seed + 2, LeaseSeconds: 10,
				Speeds: SpeedSpec{Kind: Set, Classes: []float64{20, 50, 100}}},
			{Kernel: service.KernelOuter, Strategy: "dynamic", N: 16, P: p, Seed: seed + 3, Batch: 2,
				ArriveAt: 50 * time.Millisecond, Speeds: SpeedSpec{Kind: Homogeneous}},
		},
	}
}

// StragglersAndPartitions mixes the slow-but-alive failure modes on a
// QR run (the multi-output kernel, the hardest reclaim path): two
// stragglers drop to a tenth of their speed mid-run, and two workers
// are partitioned from the master long enough that their held batches
// expire and their heal-time reports draw 409.
func StragglersAndPartitions(n, p int, seed uint64) Scenario {
	return Scenario{
		Name: "stragglers-partitions-qr",
		Seed: seed,
		Runs: []RunSpec{{
			Kernel: service.KernelQR, Strategy: "critpath", N: n, P: p, Seed: seed + 1,
			LeaseSeconds: 3,
			Speeds:       SpeedSpec{Kind: Uniform},
		}},
		Events: []Event{
			{At: 100 * time.Millisecond, Worker: 1, Kind: Slow, Factor: 10},
			{At: 100 * time.Millisecond, Worker: 2, Kind: Slow, Factor: 10},
			{At: 200 * time.Millisecond, Worker: 3, Kind: Partition, Duration: 10 * time.Second},
			{At: 250 * time.Millisecond, Worker: 4, Kind: Partition, Duration: 10 * time.Second},
			{At: 5 * time.Second, Worker: 1, Kind: Slow, Factor: 1}, // one straggler recovers
		},
	}
}

// BackpressureObservers attaches every subscriber shape to a crashing
// Cholesky run: an eager full-stream reader, a slow cadenced drainer
// and a stalled never-reading reader (both on tiny buffers), and an
// SSE-style disconnect/resume. The observability acceptance scenario:
// the stalled subscriber must shed load through drops while the
// scheduling outcome hashes identically to the subscriber-free run
// (strip Subscribers and re-run to compare).
func BackpressureObservers(seed uint64) Scenario {
	sc := CrashHeavy(service.KernelCholesky, 12, 16, 4, seed)
	sc.Name = "backpressure-observers"
	sc.Subscribers = []SubscriberSpec{
		{Run: 0, Kind: SubFast},
		{Run: 0, Kind: SubSlow, Buffer: 16, DrainEvery: 250 * time.Millisecond},
		{Run: 0, Kind: SubStalled, Buffer: 16},
		{Run: 0, Kind: SubDisconnecting, Buffer: 32,
			DisconnectAt: 200 * time.Millisecond, ReconnectAt: 15 * time.Second},
	}
	return sc
}

// Herd100k is the 100,000-worker registration stampede: one flat
// outer run (n=128, 16384 tasks, batch 4, leases armed) whose entire
// fleet polls on the same virtual instant. Roughly 4k workers win
// grants and drain the run while the rest park on their first wait —
// so the scenario prices the poll path at the fleet size ROADMAP item
// 3 targets, and its invariant check proves exactly-once accounting
// holds under a 100k-poll burst. Runs in well under a second of wall
// time in direct mode thanks to the slab-recycled harness.
func Herd100k(seed uint64) Scenario {
	return herd(100_000, 128, seed)
}

// Herd1M is the stretch smoke: a million-worker stampede over a small
// task set. Direct mode only (a million loopback round-trips buy
// bytes, not coverage) and skipped under -short: the fleet slab alone
// is ~100MB.
func Herd1M(seed uint64) Scenario {
	return herd(1_000_000, 64, seed)
}

func herd(p, n int, seed uint64) Scenario {
	return Scenario{
		Name: fmt.Sprintf("herd-%dk", p/1000),
		Seed: seed,
		Runs: []RunSpec{{
			Kernel: service.KernelOuter, Strategy: "2phases", N: n, P: p,
			Seed: seed + 1, Batch: 4, LeaseSeconds: 30,
			Speeds: SpeedSpec{Kind: Uniform},
		}},
	}
}

// Acceptance is the issue's flagship scenario: a 1000-worker
// dynamically drifting (dyn.20) Cholesky fleet with a wave of mid-run
// crashes — completing deterministically, exactly-once, within the
// analysis bounds, in well under two seconds of wall time.
func Acceptance(seed uint64) Scenario {
	sc := Scenario{
		Name: "acceptance-1k-drift-cholesky",
		Seed: seed,
		Runs: []RunSpec{{
			Kernel: service.KernelCholesky, Strategy: "locality", N: 32, P: 1000, Seed: seed + 1,
			LeaseSeconds: 2,
			Speeds:       SpeedSpec{Kind: Uniform, Drift: 0.20},
		}},
	}
	// Worker 0 dies holding POTRF(0) — the pure wedge, only the lease
	// reclaim can save the run — and once the DAG has opened up after
	// that reclaim, a wave of 49 more crashes spread across the worker
	// id space hits the run's active phase, so some victims die holding
	// live work across the DAG levels while others die parked.
	sc.Events = append(sc.Events, Event{At: time.Millisecond, Worker: 0, Kind: Crash})
	for v := 1; v < 50; v++ {
		sc.Events = append(sc.Events, Event{
			At: 2500*time.Millisecond + time.Duration(v)*120*time.Millisecond, Worker: v * 20, Kind: Crash,
		})
	}
	return sc
}

// MasterCrashMidRun is the durability flagship: a journaled master
// serving two runs — a flat outer drain and a Cholesky DAG whose
// worker 3 dies holding a leased batch — is checkpointed once and then
// SIGKILLed twice mid-run, recovering from its journal directory each
// time. The first master crash lands after the checkpoint (snapshot +
// tail replay), the second before the dead worker's lease has expired,
// so the reclaim that heals the DAG fires against twice-recovered
// state. The outcome must hash bit-identically to the journal-less
// uninterrupted twin (UninterruptedTwin) — recovery is exact or it is
// broken.
func MasterCrashMidRun(seed uint64) Scenario {
	return Scenario{
		Name:    "master-crash-midrun",
		Seed:    seed,
		Journal: true,
		Runs: []RunSpec{
			{Kernel: service.KernelOuter, Strategy: "2phases", N: 48, P: 64, Seed: seed + 1,
				Batch: 4, LeaseSeconds: 30, Speeds: SpeedSpec{Kind: Uniform}},
			{Kernel: service.KernelCholesky, N: 10, P: 12, Seed: seed + 2,
				LeaseSeconds: 5, Speeds: SpeedSpec{Kind: Uniform}},
		},
		Events: []Event{
			{At: 100 * time.Millisecond, Run: 1, Worker: 3, Kind: Crash},
			{At: 250 * time.Millisecond, Kind: Checkpoint},
			{At: 400 * time.Millisecond, Kind: MasterCrash},
			{At: 900 * time.Millisecond, Kind: MasterCrash},
		},
	}
}

// Federated4x25k is the federated flagship: four flat outer runs,
// 25,000 workers each (100k total), pinned ids fed-0..fed-3 that the
// epoch-1 consistent-hash ring spreads one-per-host across a 4-host
// fleet (owners 3, 0, 2, 1). Arrivals stagger by 10ms so the
// registration stampedes land host by host. The hash must be
// bit-identical between the in-process router and the full
// listener-per-host wire topology.
func Federated4x25k(seed uint64) Scenario {
	sc := Scenario{
		Name:      "federated-4x25k",
		Seed:      seed,
		Hosts:     4,
		RingEpoch: 1,
	}
	for i := 0; i < 4; i++ {
		sc.Runs = append(sc.Runs, RunSpec{
			RunID:  fmt.Sprintf("fed-%d", i),
			Kernel: service.KernelOuter, Strategy: "2phases", N: 96, P: 25_000,
			Seed: seed + uint64(i) + 1, Batch: 4, LeaseSeconds: 30,
			ArriveAt: time.Duration(i) * 10 * time.Millisecond,
			Speeds:   SpeedSpec{Kind: Uniform},
		})
	}
	return sc
}

// FederatedMigrate is the migration flagship: four journaled runs on
// a 4-host epoch-1 ring (owners 3, 0, 2, 1 for fed-0..fed-3), hit
// mid-run by the full placement-plane script — an explicit live
// migration of fed-1 onto a non-owner, the crash of fed-0's owner
// (host 3), and a RingChange to epoch 2 that scavenges the corpse's
// journal onto the new ring owner while rebalancing every live run,
// explicit move included. All four runs must drain to completion with
// zero Lost: the crashed host's run is resurrected from its journal
// (snapshot-ship-replay via the death path), its workers' polls
// absorbing hostDown 503s until the recovery RingChange lands. The
// outcome must hash bit-identically between direct and HTTP
// transports — migration is exact or it is broken.
func FederatedMigrate(seed uint64) Scenario {
	sc := Scenario{
		Name:      "federated-migrate",
		Seed:      seed,
		Hosts:     4,
		RingEpoch: 1,
		Journal:   true,
	}
	for i := 0; i < 4; i++ {
		sc.Runs = append(sc.Runs, RunSpec{
			RunID:  fmt.Sprintf("fed-%d", i),
			Kernel: service.KernelOuter, Strategy: "2phases", N: 48, P: 64,
			Seed: seed + uint64(i) + 1, Batch: 4, LeaseSeconds: 30,
			ArriveAt: time.Duration(i) * 10 * time.Millisecond,
			Speeds:   SpeedSpec{Kind: Uniform},
		})
	}
	ring, err := federation.NewRing(federation.HostNames(sc.Hosts), 0, sc.RingEpoch)
	if err != nil {
		panic(err)
	}
	// Migrate fed-1 off its epoch-1 owner onto the next live index —
	// computed, not hard-coded, so the scenario survives ring tweaks.
	away := (ring.Owner(sc.Runs[1].RunID) + 1) % sc.Hosts
	sc.Events = append(sc.Events,
		Event{At: 120 * time.Millisecond, Kind: Migrate, Run: 1, Host: away},
		Event{At: 150 * time.Millisecond, Kind: HostCrash, Host: ring.Owner(sc.Runs[0].RunID)},
		Event{At: 250 * time.Millisecond, Kind: RingChange, Epoch: sc.RingEpoch + 1},
	)
	return sc
}

// Federated4x25kHostCrash is Federated4x25k with fed-0's host (ring
// owner 3 at epoch 1) killed mid-run: fed-0 must surface as Lost with
// a sane partial ledger while the three surviving hosts' runs drain
// to completion, and the placement invariants must hold over the
// survivors — the single-host-crash blast-radius contract.
func Federated4x25kHostCrash(seed uint64) Scenario {
	sc := Federated4x25k(seed)
	sc.Name = "federated-4x25k-hostcrash"
	ring, err := federation.NewRing(federation.HostNames(sc.Hosts), 0, sc.RingEpoch)
	if err != nil {
		panic(err)
	}
	sc.Events = append(sc.Events, Event{
		At: 150 * time.Millisecond, Kind: HostCrash, Host: ring.Owner(sc.Runs[0].RunID),
	})
	return sc
}
