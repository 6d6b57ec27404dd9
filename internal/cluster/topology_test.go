package cluster

import (
	"fmt"
	"testing"

	"hetsched/internal/service"
)

// topologyScenario is a small crash-free outer 2phases scenario on the
// given topology: two runs, so three hosts can split them. Ids are
// pinned wherever placement hashes them (hosts > 1); a single host
// mints its own.
func topologyScenario(hosts int, journal bool) Scenario {
	sc := Scenario{Name: "topology", Seed: 31, Hosts: hosts, RingEpoch: 1, Journal: journal}
	for i := 0; i < 2; i++ {
		spec := RunSpec{Kernel: service.KernelOuter, Strategy: "2phases", N: 12, P: 6,
			Seed: uint64(32 + i), Batch: 2, Speeds: SpeedSpec{Kind: Uniform}}
		if hosts > 1 {
			spec.RunID = fmt.Sprintf("topo-%d", i)
		}
		sc.Runs = append(sc.Runs, spec)
	}
	return sc
}

// TestTopologyMatrix: a single host is a one-host federation, so every
// hosts × journal cell takes the same path — both transports hash
// identically, every invariant (placement included) holds, and the
// journal is invisible to the outcome.
func TestTopologyMatrix(t *testing.T) {
	cases := []struct {
		hosts   int
		journal bool
	}{
		{hosts: 1, journal: false},
		{hosts: 1, journal: true},
		{hosts: 2, journal: false},
		{hosts: 2, journal: true},
		{hosts: 3, journal: false},
		{hosts: 3, journal: true},
	}
	plain := map[int]uint64{}
	for _, c := range cases {
		sc := topologyScenario(c.hosts, c.journal)
		direct := run(t, sc, Direct)
		http := run(t, sc, HTTP)
		if d, h := direct.Hash(), http.Hash(); d != h {
			t.Fatalf("hosts=%d journal=%v: direct %016x != http %016x", c.hosts, c.journal, d, h)
		}
		if direct.Hosts != c.hosts || len(direct.HostRuns) != c.hosts || len(direct.RouterRuns) != len(sc.Runs) {
			t.Fatalf("hosts=%d journal=%v: placement snapshot hosts=%d views=%d router=%v",
				c.hosts, c.journal, direct.Hosts, len(direct.HostRuns), direct.RouterRuns)
		}
		if !c.journal {
			plain[c.hosts] = direct.Hash()
		} else if direct.Hash() != plain[c.hosts] {
			t.Fatalf("hosts=%d: journaling moved the outcome: %016x vs %016x", c.hosts, direct.Hash(), plain[c.hosts])
		}
	}
}

// TestPlacementCorruptionsFail: checkPlacement is not vacuous on any
// topology — each corruption of a passing Result fails it, on one host
// as on three.
func TestPlacementCorruptionsFail(t *testing.T) {
	cases := []struct {
		name string
		mut  func(res *Result)
	}{
		{name: "run held by two hosts", mut: func(res *Result) {
			rr := &res.Runs[0]
			other := (rr.HostIdx + 1) % res.Hosts
			res.HostRuns[other] = append(res.HostRuns[other], rr.Info.ID)
		}},
		{name: "router view is not the union", mut: func(res *Result) {
			res.RouterRuns = res.RouterRuns[1:]
		}},
		{name: "wrong HostIdx", mut: func(res *Result) {
			res.Runs[0].HostIdx++
		}},
	}
	for _, hosts := range []int{1, 3} {
		base := run(t, topologyScenario(hosts, false), Direct)
		for _, c := range cases {
			res := clonePlacement(base)
			c.mut(res)
			if err := res.checkPlacement(); err == nil {
				t.Errorf("hosts=%d %s: checkPlacement passed", hosts, c.name)
			}
		}
	}
}

// clonePlacement copies res deeply enough that a corruption of its
// runs or placement views leaves res itself intact.
func clonePlacement(res *Result) *Result {
	c := *res
	c.Runs = append([]RunResult(nil), res.Runs...)
	c.RouterRuns = append([]string(nil), res.RouterRuns...)
	c.HostRuns = make([][]string, len(res.HostRuns))
	for h, ids := range res.HostRuns {
		c.HostRuns[h] = append([]string(nil), ids...)
	}
	return &c
}
