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
