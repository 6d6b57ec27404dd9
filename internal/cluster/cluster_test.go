package cluster

import (
	"testing"
	"time"

	"hetsched/internal/service"
)

// run executes sc and checks every invariant, failing the test on any
// violation. The whole scenario matrix goes through it.
func run(t *testing.T, sc Scenario, mode Mode) *Result {
	t.Helper()
	res, err := Run(sc, mode)
	if err != nil {
		t.Fatalf("%s [%s]: %v", sc.Name, mode, err)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatalf("%s [%s]: invariants: %v", sc.Name, mode, err)
	}
	return res
}

// TestHealthyFleetDrains is the harness smoke test: a plain
// heterogeneous outer run, no faults, both modes.
func TestHealthyFleetDrains(t *testing.T) {
	sc := Scenario{
		Name: "healthy-outer",
		Seed: 1,
		Runs: []RunSpec{{
			Kernel: service.KernelOuter, Strategy: "2phases", N: 16, P: 8, Seed: 2, Batch: 2,
			Speeds: SpeedSpec{Kind: Uniform},
		}},
	}
	for _, mode := range []Mode{Direct, HTTP} {
		res := run(t, sc, mode)
		st := res.Runs[0].Stats
		if st.Reclaimed != 0 || res.Runs[0].Conflicts != 0 {
			t.Fatalf("[%s] healthy run reclaimed %d tasks, %d conflicts", mode, st.Reclaimed, res.Runs[0].Conflicts)
		}
		if st.Completed != 16*16 {
			t.Fatalf("[%s] completed %d tasks, want %d", mode, st.Completed, 16*16)
		}
		if res.FinalVirtual <= 0 {
			t.Fatalf("[%s] no virtual time elapsed", mode)
		}
	}
}

// TestCrashedWorkerHealsViaLease pins the harness's failure path
// against the real reclaim machinery: the root-task holder of a
// Cholesky run dies, the run must complete through lease reclamation
// with the reclaim attributed to the dead worker.
func TestCrashedWorkerHealsViaLease(t *testing.T) {
	sc := Scenario{
		Name: "crash-root",
		Seed: 3,
		Runs: []RunSpec{{
			Kernel: service.KernelCholesky, N: 8, P: 6, Seed: 4,
			LeaseSeconds: 5,
			Speeds:       SpeedSpec{Kind: Uniform},
		}},
		Events: []Event{{At: time.Microsecond, Worker: 0, Kind: Crash}},
	}
	for _, mode := range []Mode{Direct, HTTP} {
		res := run(t, sc, mode)
		st := res.Runs[0].Stats
		if st.Reclaimed < 1 {
			t.Fatalf("[%s] nothing reclaimed after the root holder crashed", mode)
		}
		if st.Workers[0].Reclaimed < 1 {
			t.Fatalf("[%s] reclaim not attributed to the dead worker: %+v", mode, st.Workers[0])
		}
	}
}

// TestWedgeWithoutLeaseReportedAsWedged: with leases disabled, a crash
// holding the root task wedges the run forever — the harness must
// surface that as an invariant violation at its virtual deadline, not
// loop forever or mask it.
func TestWedgeWithoutLeaseReportedAsWedged(t *testing.T) {
	sc := Scenario{
		Name: "wedge-no-lease",
		Seed: 5,
		Runs: []RunSpec{{
			Kernel: service.KernelCholesky, N: 6, P: 4, Seed: 6,
			Speeds: SpeedSpec{Kind: Uniform}, // LeaseSeconds 0: no reclamation
		}},
		Events:   []Event{{At: time.Microsecond, Worker: 0, Kind: Crash}},
		Deadline: 30 * time.Second,
	}
	res, err := Run(sc, Direct)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckInvariants(); err == nil {
		t.Fatal("a leaseless wedge passed the invariant check")
	}
	if st := res.Runs[0].Stats; st.State == service.StateComplete {
		t.Fatalf("wedged run reports complete: %+v", st)
	}
}

// TestPartitionedWorkerDraws409: a worker partitioned past its lease
// reports at heal time and must be answered 409 (conflict counted,
// tasks reclaimed), then re-integrate as a healthy worker.
func TestPartitionedWorkerDraws409(t *testing.T) {
	sc := Scenario{
		Name: "partition-409",
		Seed: 7,
		Runs: []RunSpec{{
			Kernel: service.KernelOuter, Strategy: "dynamic", N: 12, P: 4, Seed: 8, Batch: 4,
			LeaseSeconds: 1,
			Speeds:       SpeedSpec{Kind: Uniform},
		}},
		// Partition worker 0 at the instant it is executing its first
		// batch, for far longer than the lease.
		Events: []Event{{At: 10 * time.Millisecond, Worker: 0, Kind: Partition, Duration: 5 * time.Second}},
	}
	for _, mode := range []Mode{Direct, HTTP} {
		res := run(t, sc, mode)
		if res.Runs[0].Conflicts < 1 {
			t.Fatalf("[%s] partition outliving the lease produced no 409", mode)
		}
		if res.Runs[0].Stats.Reclaimed < 1 {
			t.Fatalf("[%s] partition outliving the lease reclaimed nothing", mode)
		}
	}
}

// TestBurstyArrivalsShareRegistry: multiple runs arriving in bursts
// against one registry, each with its own fleet, all complete with
// clean accounting (the multi-run path: registry lookups, per-run
// clocks, janitor over many runs).
func TestBurstyArrivalsShareRegistry(t *testing.T) {
	sc := ThunderingHerd(16, 9)
	for _, mode := range []Mode{Direct, HTTP} {
		res := run(t, sc, mode)
		if len(res.Runs) != 3 {
			t.Fatalf("[%s] %d runs collected", mode, len(res.Runs))
		}
	}
}

// TestStragglersDoNotBreakAccounting: the slow-but-alive matrix entry.
func TestStragglersDoNotBreakAccounting(t *testing.T) {
	res := run(t, StragglersAndPartitions(6, 8, 11), Direct)
	if res.Runs[0].Stats.Reclaimed < 1 {
		t.Fatal("10s partitions with a 3s lease reclaimed nothing")
	}
}

// TestTTLExpiryAgreesAcrossModes: a run whose whole fleet dies with
// leases disarmed goes idle past the registry TTL and is expired and
// swept by the janitor; both modes must then fail the scenario the
// same way (the swept run cannot be collected) rather than direct mode
// silently serving it from a retained pointer.
func TestTTLExpiryAgreesAcrossModes(t *testing.T) {
	sc := Scenario{
		Name: "ttl-expiry",
		Seed: 13,
		Runs: []RunSpec{{
			Kernel: service.KernelOuter, Strategy: "dynamic", N: 8, P: 2, Seed: 14,
			Speeds: SpeedSpec{Kind: Uniform},
		}},
		Events: []Event{
			{At: time.Millisecond, Worker: 0, Kind: Crash},
			{At: time.Millisecond, Worker: 1, Kind: Crash},
		},
		TTL:      2 * time.Second,
		Deadline: 30 * time.Second,
	}
	for _, mode := range []Mode{Direct, HTTP} {
		if _, err := Run(sc, mode); err == nil {
			t.Fatalf("[%s] scenario over a TTL-swept run reported success", mode)
		}
	}
}

// TestScenarioValidation: malformed scripts are rejected up front.
func TestScenarioValidation(t *testing.T) {
	base := RunSpec{Kernel: service.KernelOuter, N: 4, P: 2, Seed: 1}
	for name, sc := range map[string]Scenario{
		"no runs":           {Name: "empty"},
		"event bad run":     {Runs: []RunSpec{base}, Events: []Event{{Run: 3}}},
		"event bad worker":  {Runs: []RunSpec{base}, Events: []Event{{Worker: 9}}},
		"empty partition":   {Runs: []RunSpec{base}, Events: []Event{{Kind: Partition}}},
		"speedup straggler": {Runs: []RunSpec{base}, Events: []Event{{Kind: Slow, Factor: 0.5}}},
		"bad kernel":        {Runs: []RunSpec{{Kernel: "fft", N: 4, P: 2}}},
		"strategy mismatch": {Runs: []RunSpec{{Kernel: service.KernelOuter, Strategy: "critpath", N: 4, P: 2}}},
		"journal-less master crash": {Runs: []RunSpec{base},
			Events: []Event{{Kind: MasterCrash}}},
		"journal-less checkpoint": {Runs: []RunSpec{base},
			Events: []Event{{Kind: Checkpoint}}},
		"federated master crash": {Hosts: 2, Journal: true,
			Runs:   []RunSpec{{RunID: "r-a", Kernel: service.KernelOuter, N: 4, P: 2, Seed: 1}},
			Events: []Event{{Kind: MasterCrash}}},
		"single-host migrate": {Journal: true, Runs: []RunSpec{base},
			Events: []Event{{Kind: Migrate, Run: 0, Host: 0}}},
		"journal-less migrate": {Hosts: 2,
			Runs:   []RunSpec{{RunID: "r-a", Kernel: service.KernelOuter, N: 4, P: 2, Seed: 1}},
			Events: []Event{{Kind: Migrate, Run: 0, Host: 1}}},
		"migrate out of range": {Hosts: 2, Journal: true,
			Runs:   []RunSpec{{RunID: "r-a", Kernel: service.KernelOuter, N: 4, P: 2, Seed: 1}},
			Events: []Event{{Kind: Migrate, Run: 0, Host: 2}}},
		"journal-less ring change": {Hosts: 2,
			Runs:   []RunSpec{{RunID: "r-a", Kernel: service.KernelOuter, N: 4, P: 2, Seed: 1}},
			Events: []Event{{Kind: RingChange, Epoch: 2}}},
		"migrate with subscribers": {Hosts: 2, Journal: true,
			Runs:        []RunSpec{{RunID: "r-a", Kernel: service.KernelOuter, N: 4, P: 2, Seed: 1}},
			Events:      []Event{{Kind: Migrate, Run: 0, Host: 1}},
			Subscribers: []SubscriberSpec{{Run: 0, Kind: SubFast}}},
		"master crash with subscribers": {Journal: true, Runs: []RunSpec{base},
			Events:      []Event{{Kind: MasterCrash}},
			Subscribers: []SubscriberSpec{{Run: 0, Kind: SubFast}}},
	} {
		if _, err := Run(sc, Direct); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
