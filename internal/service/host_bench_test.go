package service

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"hetsched/internal/core"
	"hetsched/internal/events"
)

// dupInReport returns a task reported more than once in completed, if
// any. Reports of length ≤ smallReport use the quadratic scan the poll
// path runs (Host.apply); longer ones build a map, where the poll path
// finds duplicates in its fused validate-and-apply loop instead. This
// standalone form is for the cutoff test and benchmarks.
func dupInReport(completed []core.Task) (core.Task, bool) {
	if len(completed) <= 1 {
		return 0, false
	}
	if len(completed) <= smallReport {
		for i := 1; i < len(completed); i++ {
			for j := 0; j < i; j++ {
				if completed[i] == completed[j] {
					return completed[i], true
				}
			}
		}
		return 0, false
	}
	seen := make(map[core.Task]struct{}, len(completed))
	for _, t := range completed {
		if _, dup := seen[t]; dup {
			return t, true
		}
		seen[t] = struct{}{}
	}
	return 0, false
}

// dupReport builds a duplicate-free completion report of k tasks with
// realistic (non-contiguous) identifiers.
func dupReport(k int) []core.Task {
	out := make([]core.Task, k)
	for i := range out {
		out[i] = core.Task(i*977 + 13)
	}
	return out
}

// forceScan and forceMap run the two dupInReport strategies regardless
// of smallReport, so the crossover can be measured on both sides of
// the cutoff.
func forceScan(completed []core.Task) bool {
	for i := 1; i < len(completed); i++ {
		for j := 0; j < i; j++ {
			if completed[i] == completed[j] {
				return true
			}
		}
	}
	return false
}

func forceMap(completed []core.Task) bool {
	seen := make(map[core.Task]struct{}, len(completed))
	for _, t := range completed {
		if _, dup := seen[t]; dup {
			return true
		}
		seen[t] = struct{}{}
	}
	return false
}

// The four benchmarks document the smallReport=16 cutoff: at k=16 and
// k=17 alike the quadratic scan is ~4× faster than the map and
// allocation-free (the true crossover sits far higher), so the cutoff
// is not a measured break-even but a worst-case guard — it bounds the
// comparisons a maximally oversized report can buy under the run's
// lock while keeping the common batch-sized path allocation-free. Run
// with:
//
//	go test ./internal/service -bench 'DupScan' -benchmem
func benchDup(b *testing.B, k int, f func([]core.Task) bool) {
	report := dupReport(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f(report) {
			b.Fatal("false duplicate")
		}
	}
}

// BenchmarkHostNext times one poll at the transport-free limit, on the
// allocation gate's host (pollHost), a fresh one started whenever a run
// drains. The serial rows poll round-robin with a lease that never
// fires and with the journal armed on top of it; the parallel rows
// poll one Host from GOMAXPROCS goroutines, one worker each, bare and
// with an event stream attached.
func BenchmarkHostNext(b *testing.B) {
	for _, tc := range []struct {
		name            string
		lease           time.Duration
		events, journal bool
		parallel        bool
	}{
		{name: "plain"},
		{name: "lease", lease: time.Hour},
		{name: "journal", lease: time.Hour, journal: true},
		{name: "parallel", parallel: true},
		{name: "parallel+events", events: true, parallel: true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			if !tc.parallel {
				poll := allocPollLoop(b, tc.lease, tc.events, tc.journal)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					poll()
				}
				return
			}
			var mu sync.Mutex
			seed, workers := uint64(1), 0
			h := pollHost(b, seed, tc.lease, tc.events, nil)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				w := workers % pollP
				workers++
				mu.Unlock()
				var pending []core.Task
				var last *Host
				for pb.Next() {
					mu.Lock()
					host := h
					mu.Unlock()
					if host != last { // a fresh run: the held batch died with the old one
						pending, last = nil, host
					}
					a, status, err := host.Next(w, pending)
					if err != nil {
						b.Error(err) // Fatal must not be called off the benchmark goroutine
						return
					}
					pending = a.Tasks
					if status == StatusDone {
						mu.Lock()
						if h == host { // the first to see done starts the next run
							seed++
							h = pollHost(b, seed, tc.lease, tc.events, nil)
						}
						mu.Unlock()
					}
				}
			})
		})
	}
}

// BenchmarkRunFootprint reports the heap a drained run keeps until the
// registry sweeps it, in B/run: the benchmark's poll shape (outer
// 2phases, n=128, p=64, batch 1) built as Options.NewRun builds it, with
// an event stream attached, drained by the round-robin script. Every
// drained run stays referenced; the live heap after a collection, less
// the live heap before the first run, is divided by the runs.
func BenchmarkRunFootprint(b *testing.B) {
	clk := newVclock()
	opts := Options{Events: events.NewBus(0), Now: clk.now}
	runs := make([]*Run, 0, b.N)
	before := liveHeap()
	for i := 0; i < b.N; i++ {
		q := CreateRunRequest{Kernel: KernelOuter, Strategy: "2phases", N: 128, P: 64, Seed: uint64(i) + 1, Batch: 1}
		if err := q.Validate(); err != nil {
			b.Fatal(err)
		}
		run, err := opts.NewRun(fmt.Sprintf("footprint-%d", i), &q)
		if err != nil {
			b.Fatal(err)
		}
		driveScript(b, run, clk, 0)
		runs = append(runs, run)
	}
	b.StopTimer()
	b.ReportMetric(float64(liveHeap()-before)/float64(b.N), "B/run")
	runtime.KeepAlive(runs)
}

// liveHeap collects garbage and returns the bytes still allocated.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func BenchmarkDupScan16(b *testing.B)    { benchDup(b, 16, forceScan) }
func BenchmarkDupScanMap16(b *testing.B) { benchDup(b, 16, forceMap) }
func BenchmarkDupScan17(b *testing.B)    { benchDup(b, 17, forceScan) }
func BenchmarkDupScanMap17(b *testing.B) { benchDup(b, 17, forceMap) }

func TestDupInReport(t *testing.T) {
	for _, k := range []int{0, 1, 2, smallReport, smallReport + 1, 100} {
		report := dupReport(k)
		if task, dup := dupInReport(report); dup {
			t.Fatalf("k=%d: false duplicate %d", k, task)
		}
		if k < 2 {
			continue
		}
		report[k-1] = report[0]
		task, dup := dupInReport(report)
		if !dup || task != report[0] {
			t.Fatalf("k=%d: duplicate not found (got %d, %v)", k, task, dup)
		}
	}
}
