// Command clustersim runs a deterministic virtual-time cluster
// scenario — a scripted heterogeneous worker fleet with crashes,
// stragglers, partitions and bursty arrivals — against the real
// scheduler service (internal/service) through internal/cluster, and
// prints per-run statistics, the invariant verdict and the
// determinism hash:
//
//	clustersim -scenario acceptance -seed 1
//	clustersim -scenario crash -kernel qr -n 8 -p 64 -mode http
//	clustersim -scenario herd -p 2000
//
// Scenarios come from the shared corpus (the same scripts the go-test
// matrix runs); -mode http drives the full HTTP/JSON path through
// loopback listeners in front of the router and each host, and must
// produce the identical hash as -mode direct for equal seeds.
//
// -events <path> attaches a recording full-stream subscriber to every
// run and dumps the complete event ledger — every assignment,
// completion, reclaim, 409 conflict and state transition, in
// publication order — as JSON Lines.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"hetsched/internal/cluster"
)

func main() {
	scenario := flag.String("scenario", "acceptance", "acceptance | drift | crash | janitor | herd | herd100k | herd1m | stragglers | backpressure | federated | federated-crash | master-crash | migrate")
	kernel := flag.String("kernel", "cholesky", "workload for drift/crash/janitor: outer | matmul | cholesky | lu | qr")
	n := flag.Int("n", 12, "blocks/tiles per dimension (drift/crash/janitor/stragglers)")
	p := flag.Int("p", 100, "fleet size (scenario-dependent)")
	seed := flag.Uint64("seed", 1, "scenario root seed")
	amplitude := flag.Float64("drift", 0.20, "drift amplitude for -scenario drift (0.05 = dyn.5, 0.20 = dyn.20)")
	victims := flag.Int("victims", 8, "crash count for -scenario crash")
	mode := flag.String("mode", "direct", "direct | http")
	eventsOut := flag.String("events", "", "dump the scenario's full event ledger to this file as JSON Lines (one event per line, publication order)")
	flag.Parse()

	var sc cluster.Scenario
	switch *scenario {
	case "acceptance":
		sc = cluster.Acceptance(*seed)
	case "drift":
		sc = cluster.HeterogeneousDrift(*kernel, *n, *p, *amplitude, *seed)
	case "crash":
		sc = cluster.CrashHeavy(*kernel, *n, *p, *victims, *seed)
	case "janitor":
		sc = cluster.JanitorRace(*kernel, *n, *p, *seed)
	case "herd":
		sc = cluster.ThunderingHerd(*p, *seed)
	case "herd100k":
		sc = cluster.Herd100k(*seed)
	case "herd1m":
		sc = cluster.Herd1M(*seed)
	case "stragglers":
		sc = cluster.StragglersAndPartitions(*n, *p, *seed)
	case "backpressure":
		sc = cluster.BackpressureObservers(*seed)
	case "federated":
		sc = cluster.Federated4x25k(*seed)
	case "federated-crash":
		sc = cluster.Federated4x25kHostCrash(*seed)
	case "master-crash":
		// The journaled master is checkpointed and SIGKILLed twice
		// mid-run, recovering from its write-ahead journal each time;
		// the printed hash must equal the journal-less uninterrupted
		// twin's (the determinism tests pin both).
		sc = cluster.MasterCrashMidRun(*seed)
	case "migrate":
		// Live migration on a journaled 4-host federation: an explicit
		// snapshot-ship-replay move at 120ms, an owner crash at 150ms
		// (the orphan's workers retry against the corpse), then a
		// ring-epoch bump at 250ms that scavenges the dead host's runs
		// from its journal and rebalances the survivors — every run
		// drains, zero LOST, hash-identical across -mode direct/http.
		sc = cluster.FederatedMigrate(*seed)
	default:
		fmt.Fprintf(os.Stderr, "clustersim: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	var m cluster.Mode
	switch *mode {
	case "direct":
		m = cluster.Direct
	case "http":
		m = cluster.HTTP
	default:
		fmt.Fprintf(os.Stderr, "clustersim: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	// The ledger dump rides on a recording full-stream subscriber per
	// run — a pure observer, so it cannot move the determinism hash.
	if *eventsOut != "" {
		for i := range sc.Runs {
			sc.Subscribers = append(sc.Subscribers,
				cluster.SubscriberSpec{Run: i, Kind: cluster.SubFast, Record: true})
		}
	}

	start := time.Now()
	res, err := cluster.Run(sc, m)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clustersim: %v\n", err)
		os.Exit(1)
	}
	wall := time.Since(start)

	fmt.Printf("scenario      %s (seed %d, mode %s)\n", sc.Name, sc.Seed, m)
	fmt.Printf("events/polls  %d / %d\n", res.Events, res.Polls)
	fmt.Printf("virtual time  %v   (wall %v)\n", res.FinalVirtual.Round(time.Millisecond), wall.Round(time.Microsecond))
	for i, rr := range res.Runs {
		host := ""
		if res.Hosts > 1 {
			host = fmt.Sprintf(" host=%d", rr.HostIdx)
		}
		if !rr.Arrived {
			fmt.Printf("run %-2d never arrived\n", i)
			continue
		}
		if rr.Lost {
			fmt.Printf("run %-2d %-9s %-9s n=%-4d p=%-5d LOST (host crashed, %d tasks accepted before)%s\n",
				i, rr.Spec.Kernel, rr.Spec.Strategy, rr.Spec.N, rr.Spec.P, len(rr.Accepted), host)
			continue
		}
		st := rr.Stats
		fmt.Printf("run %-2d %-9s %-9s n=%-4d p=%-5d state=%-9s tasks=%d assigned=%d reclaimed=%d conflicts=%d blocks=%d makespan=%.3fs%s\n",
			i, rr.Spec.Kernel, rr.Info.Strategy, rr.Spec.N, rr.Spec.P,
			st.State, st.Completed, st.Assigned, st.Reclaimed, rr.Conflicts, st.Blocks, st.MakespanSeconds, host)
	}
	if err := res.CheckInvariants(); err != nil {
		fmt.Printf("invariants    VIOLATED: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("invariants    ok (exactly-once, lease accounting, trace monotone, analysis bounds)\n")
	fmt.Printf("hash          %016x\n", res.Hash())

	if *eventsOut != "" {
		n, err := dumpEvents(*eventsOut, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clustersim: writing event ledger: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("events        %d written to %s\n", n, *eventsOut)
	}
}

// dumpEvents writes every recorded subscriber's event stream as JSON
// Lines, runs in order and each run's events in publication order.
func dumpEvents(path string, res *cluster.Result) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, rr := range res.Runs {
		for _, l := range rr.Subscribers {
			if !l.Spec.Record {
				continue
			}
			for _, e := range l.Events {
				if err := enc.Encode(e); err != nil {
					f.Close()
					return n, err
				}
				n++
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
