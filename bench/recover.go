package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// The recover workload: journaled peers, no router, in rounds. A round
// drives its runs to 90% on A, hands each A -> B, kills and restarts B,
// and drains the runs on B; every round has a B of its own, so that each
// handoff and each recovery finds the same state and the samples of one
// operation compare across the whole run. It reads snapshots, transfer
// streams and the journal where poll_fleet only writes them.

// recoverRounds for -seconds on the reference box, where a round takes
// about 2 s while the box is quiet.
func (e *env) recoverRounds() int {
	if e.smoke {
		return 1
	}
	return max(2, int(math.Round(0.3*float64(e.seconds))))
}

// roundRuns is the number of runs, and so of handoffs, of a round.
func (e *env) roundRuns() int {
	if e.smoke {
		return 2
	}
	return 16
}

// roundRestarts is how often a round kills and restarts its B.
func (e *env) roundRestarts() int {
	if e.smoke {
		return 1
	}
	return 3
}

// drivenShare is how far set-up drives each run before the handoffs.
const drivenShare = 0.9

// migrate asks the host at base to hand run id to target.
func migrate(base, id, target string) error {
	body, _ := json.Marshal(map[string]string{"target": target})
	resp, err := control.Post(base+"/v1/runs/"+id+"/migrate", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("migrating run %s: HTTP %d %s", id, resp.StatusCode, clip(b))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// waitRuns polls until every run's /stats answers 200 on base.
func waitRuns(base string, runs []*runState, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, rs := range runs {
		for {
			_, code, err := getStats(base, rs.spec.ID)
			if err == nil && code == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("run %s did not come back within %v (last answer: %d %v)", rs.spec.ID, timeout, code, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// recoverSetup starts A and the first round's B and creates every run
// on A.
func recoverSetup(e *env) (*topology, error) {
	f, err := newFleet(e.bin, e.out)
	if err != nil {
		return nil, err
	}
	track(f)
	t := &topology{f: f}
	for _, name := range []string{"A", "B0"} {
		c, dir, err := f.spawnJournaled(name, "")
		if err != nil {
			return t, err
		}
		t.hosts, t.journals = append(t.hosts, c), append(t.journals, dir)
	}
	t.entry = t.hosts[0]
	for _, c := range t.hosts {
		if err := c.waitHealthy(10 * time.Second); err != nil {
			return t, err
		}
	}
	for k := 0; k < e.recoverRounds()*e.roundRuns(); k++ {
		rs, err := t.create(e.spec(fmt.Sprintf("r%d", k), k))
		if err != nil {
			return t, err
		}
		t.runs = append(t.runs, rs)
	}
	return t, nil
}

// spawnJournaled starts a schedd that journals to a directory named
// after it; a restart of the same name finds the directory again.
func (f *fleet) spawnJournaled(name, addr string) (*child, string, error) {
	dir := filepath.Join(f.tmp, "journal-"+name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	c, err := f.spawn(name, addr, "-journal-dir", dir, "-snapshot-every", "0")
	return c, dir, err
}

func recoverWorkload(e *env) error {
	rep := e.rep
	tr := newTracer()
	su := &setups{e: e, setup: recoverSetup}
	t, err := su.make()
	if err != nil {
		return err
	}
	defer t.close()
	a, b, dirB := t.hosts[0], t.hosts[1], t.journals[1]
	connA, err := dialPoll(a.addr)
	if err != nil {
		return err
	}
	defer connA.close()

	var drives []connResult
	var migrateMS, recoverMS, replayNS, snaps []float64
	var genCPU, hostCPU, rssB float64
	var sent, recv int64
	home := map[*runState]string{} // where a run ends up
	timed := func(hosts *child, f func()) {
		g, h := cpuOf(os.Getpid()), cpuOf(hosts.pid())
		f()
		genCPU, hostCPU = genCPU+cpuOf(os.Getpid())-g, hostCPU+cpuOf(hosts.pid())-h
	}
	for g := 0; g < e.recoverRounds(); g++ {
		runs := slice(t.runs, g, e.recoverRounds())
		if g > 0 {
			if b, dirB, err = t.f.spawnJournaled(fmt.Sprintf("B%d", g), ""); err != nil {
				return err
			}
			if err := b.waitHealthy(10 * time.Second); err != nil {
				return err
			}
		}
		// The in-process twins say how many polls each run takes, which
		// fixes "90% of its polls" exactly.
		target := map[*runState]int{}
		for _, rs := range runs {
			full, err := mirror(rs.spec, 0)
			if err != nil {
				return err
			}
			target[rs] = int(drivenShare * float64(full.Polls))
		}
		var res connResult
		timed(a, func() {
			res = closedLoop(connA, runs, func(rs *runState) int { return target[rs] }, time.Now())
		})
		if err := rep.tally(res); err != nil {
			return fmt.Errorf("driving the runs to %.0f%%: %w", drivenShare*100, err)
		}
		drives = append(drives, res)

		// Handoffs, one by one; a run's workers hold their batches across
		// them.
		for _, rs := range runs {
			start := time.Now()
			err := migrate(a.url(), rs.spec.ID, b.url())
			end := time.Now()
			rep.attempted++
			if err != nil {
				return err
			}
			home[rs] = b.url()
			migrateMS = append(migrateMS, float64(end.Sub(start))/1e6)
			tr.spans = append(tr.spans, span{Name: "migrate", Poll: len(migrateMS) - 1, Depth: "e2e", Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0))})
		}
		ents, _ := os.ReadDir(dirB)
		for _, ent := range ents {
			if info, err := ent.Info(); err == nil && strings.HasPrefix(ent.Name(), "snap-") {
				snaps = append(snaps, float64(info.Size()))
			}
		}

		// SIGKILL B and restart it on the same journal: exec -> every run
		// answers 200 again.
		mutations := 0
		for _, rs := range runs {
			mutations += rs.led.Polls + 1 // the polls B's history holds, and the create
		}
		for k := 0; k < e.roundRestarts(); k++ {
			mb, err := peakRSSMB(b.pid())
			if err != nil {
				return err
			}
			rssB = max(rssB, mb)
			b.kill()
			start := time.Now()
			if b, _, err = t.f.spawnJournaled(b.name, b.addr); err != nil {
				return err
			}
			rep.attempted++
			if err := waitRuns(b.url(), runs, 60*time.Second); err != nil {
				return fmt.Errorf("recovery failed: %w", err)
			}
			end := time.Now()
			recoverMS = append(recoverMS, float64(end.Sub(start))/1e6)
			replayNS = append(replayNS, float64(end.Sub(start))/float64(mutations))
			tr.spans = append(tr.spans, span{Name: "recover", Poll: len(recoverMS) - 1, Depth: "e2e", Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0))})
		}

		// Drain on B. The first poll of every worker reports the batch it
		// held across the handoff and the crash.
		connB, err := dialPoll(b.addr)
		if err != nil {
			return err
		}
		timed(b, func() { res = closedLoop(connB, runs, nil, time.Now()) })
		sent, recv = sent+connB.sent, recv+connB.recv
		connB.close()
		if err := rep.tally(res); err != nil {
			rep.check("batches held across the handoff and the crash are accepted", err)
			return nil
		}
		mb, err := peakRSSMB(b.pid())
		if err != nil {
			return err
		}
		rssB = max(rssB, mb)
		if !e.smoke {
			if err := su.again(); err != nil {
				return err
			}
		}
	}
	rep.putQuiet("setup_s", su.secs, fmt.Sprintf("A and B exec -> healthy, %d runs created on A", len(t.runs)))
	sent, recv = sent+connA.sent, recv+connA.recv
	rep.check("every handoff answered 200", nil)
	rep.check("no run lost across the crash", nil)
	rep.check("batches held across the handoff and the crash are accepted", nil)

	rate, _, _ := quietTenth(drives)
	rep.putValue("rate_per_s", rate, reduceUnits(drives).rate, "polls answered 200 / wall on journaled A, no router: the quiet tenth of the runs driven to 90%, next to every run's")
	rep.putQuiet("op_ms", migrateMS, "one A -> B handoff, POST /v1/runs/{id}/migrate")
	rep.putQuiet("slow_op_ms", recoverMS, fmt.Sprintf("SIGKILLed B: exec -> /stats of its %d runs answers 200", e.roundRuns()))
	sort.Float64s(snaps)
	rep.put("durable.snapshot_bytes", snaps, "a run's snapshot file on B after its handoff")
	rep.put("durable.replay_ns_per_mutation", replayNS, "recovery time / the mutations in B's history")
	mbA, err := peakRSSMB(a.pid())
	if err != nil {
		return err
	}
	rep.put1("peak_rss_mb", mbA+rssB, "VmHWM of A + the largest VmHWM of a B")
	led := ledgerRows(e, t.runs, sent, recv)
	rep.put("service.create_run_us", t.createUS, "POST /v1/runs on A")
	cpuRows(rep, float64(led.Polls), genCPU, hostCPU, 0)
	checkRuns(rep, t.runs, func(rs *runState) string { return home[rs] })
	if e.trace {
		if err := traceHeap(e); err != nil {
			return err
		}
		rep.put1("trace.overhead_ns", spanOverhead(), "two clock reads and an append")
		return tr.write(e.out)
	}
	return nil
}
