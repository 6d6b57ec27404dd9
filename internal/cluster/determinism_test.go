package cluster

import (
	"runtime"
	"testing"
	"time"

	"hetsched/internal/service"
)

// TestDeterministicHash: the same seeded scenario run twice produces
// the identical trace/stats hash — the harness's core promise.
func TestDeterministicHash(t *testing.T) {
	sc := CrashHeavy(service.KernelCholesky, 9, 10, 4, 91)
	a := run(t, sc, Direct)
	b := run(t, sc, Direct)
	if a.Hash() != b.Hash() {
		t.Fatalf("same seed, different outcomes: %016x vs %016x", a.Hash(), b.Hash())
	}
	// And a different seed must actually move the outcome (the hash is
	// not vacuous).
	sc2 := CrashHeavy(service.KernelCholesky, 9, 10, 4, 92)
	sc2.Name = sc.Name // isolate the seed's contribution
	if c := run(t, sc2, Direct); c.Hash() == a.Hash() {
		t.Fatal("different seeds hashed identically")
	}
}

// TestModesAgree: the full HTTP/JSON path and the in-process path are
// the same deterministic machine — equal seeds produce bit-identical
// outcomes (stats, traces, accepted ledgers) across the transport.
func TestModesAgree(t *testing.T) {
	for _, sc := range []Scenario{
		HeterogeneousDrift(service.KernelCholesky, 8, 8, 0.20, 101),
		CrashHeavy(service.KernelOuter, 12, 8, 3, 102),
		StragglersAndPartitions(5, 8, 103),
	} {
		direct := run(t, sc, Direct)
		http := run(t, sc, HTTP)
		if d, h := direct.Hash(), http.Hash(); d != h {
			t.Fatalf("%s: direct %016x != http %016x", sc.Name, d, h)
		}
	}
}

// TestHerd100kDeterministicAcrossModes is the 100k-worker acceptance
// scenario: the full registration stampede passes the invariant
// checker with the identical hash on repetition and across the
// direct/httptest transports.
func TestHerd100kDeterministicAcrossModes(t *testing.T) {
	sc := Herd100k(201)
	start := time.Now()
	a := run(t, sc, Direct)
	b := run(t, sc, Direct)
	direct := time.Since(start)
	if a.Hash() != b.Hash() {
		t.Fatalf("100k scenario not deterministic: %016x vs %016x", a.Hash(), b.Hash())
	}
	if st := a.Runs[0].Stats; st.Completed != 128*128 {
		t.Fatalf("completed %d tasks, want %d", st.Completed, 128*128)
	}
	h := run(t, sc, HTTP)
	if h.Hash() != a.Hash() {
		t.Fatalf("transport changed the outcome: direct %016x, http %016x", a.Hash(), h.Hash())
	}
	// Golden pin: any change to the scheduler, codec, or harness that
	// moves this hash is a behavior change, not a refactor. Pinned on
	// amd64 only — the β optimizer runs through math.Exp, whose
	// last-bit rounding is arch-specific.
	const golden = uint64(0x14f53a56cc5fd34a)
	if runtime.GOARCH == "amd64" && a.Hash() != golden {
		t.Errorf("100k herd hash %016x diverged from golden %016x", a.Hash(), golden)
	}
	t.Logf("100k-worker herd: %d polls, %v wall for 2 direct runs, hash %016x", a.Polls, direct, a.Hash())
}

// TestMasterCrashRecoveryExact is the durability acceptance test:
// killing the journaled master mid-run (twice, once after a
// checkpoint) and recovering it from disk is invisible to the outcome
// — the post-recovery drain hashes bit-identically to the journal-less
// uninterrupted twin, in both harness modes, and the hash is pinned.
// Every counter, trace segment, lease deadline and 409 stain must
// survive the crashes exactly, or the ledgers diverge and the hashes
// split.
func TestMasterCrashRecoveryExact(t *testing.T) {
	sc := MasterCrashMidRun(401)
	golden := run(t, UninterruptedTwin(sc), Direct)
	want := golden.Hash()
	for _, mode := range []Mode{Direct, HTTP} {
		res := run(t, sc, mode)
		if got := res.Hash(); got != want {
			t.Fatalf("[%s] master crash moved the outcome: %016x, uninterrupted twin %016x", mode, got, want)
		}
		if st := res.Runs[1].Stats; st.Reclaimed < 1 {
			t.Fatalf("[%s] the dead worker's lease was never reclaimed across the crashes", mode)
		}
	}
	// Golden pin, amd64-gated like the herd pin (the β optimizer's
	// math.Exp rounds arch-specifically): moving this hash means the
	// scheduler, codec, journal replay, or harness changed behavior.
	const pinned = uint64(0xfc9f4180432621b8)
	if runtime.GOARCH == "amd64" && want != pinned {
		t.Errorf("master-crash golden hash %016x diverged from pinned %016x", want, pinned)
	}
}

// TestAcceptance1kDriftCholeskyCrashes is the issue's acceptance
// criterion: a seeded 1000-worker dynamically drifting (dyn.20)
// Cholesky fleet with a 50-crash mid-run wave completes
// deterministically — same seed, identical hash — with every invariant
// (exactly-once, lease accounting, analysis makespan bound) checked,
// in well under two seconds of wall clock. The budget holds for a
// plain build; under the race detector the determinism and drain
// checks still run, the budget does not.
func TestAcceptance1kDriftCholeskyCrashes(t *testing.T) {
	start := time.Now()
	sc := Acceptance(1)
	a := run(t, sc, Direct)
	b := run(t, sc, Direct)
	elapsed := time.Since(start)

	if a.Hash() != b.Hash() {
		t.Fatalf("acceptance scenario not deterministic: %016x vs %016x", a.Hash(), b.Hash())
	}
	st := a.Runs[0].Stats
	if st.Reclaimed < 1 {
		t.Fatal("the crash wave reclaimed nothing")
	}
	if st.Total != a.Runs[0].Info.Total || st.Completed != st.Total {
		t.Fatalf("drain incomplete: %+v", st)
	}
	// Both runs (each with 1000 workers, drift, crashes, full HTTP-free
	// drain + invariant check) must fit the < 2s budget together.
	if !raceDetector && elapsed > 2*time.Second {
		t.Fatalf("acceptance scenario took %v, budget 2s", elapsed)
	}
	t.Logf("1k-worker drift Cholesky with crashes: %d tasks, %d reclaims, %d polls, %v virtual, %v wall (2 runs)",
		st.Total, st.Reclaimed, a.Polls, a.FinalVirtual, elapsed)
}

// UninterruptedTwin strips a scenario's master-side durability script
// — the journal, every Checkpoint and every MasterCrash — while
// keeping its name, seed, runs and worker-side faults. Its hash is
// the golden a journaled crash scenario must reproduce exactly.
func UninterruptedTwin(sc Scenario) Scenario {
	twin := sc
	twin.Journal = false
	twin.Events = nil
	for _, e := range sc.Events {
		if e.Kind != Checkpoint && e.Kind != MasterCrash {
			twin.Events = append(twin.Events, e)
		}
	}
	return twin
}
