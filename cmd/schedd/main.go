// Command schedd serves the paper's demand-driven schedulers over
// HTTP: clients create runs, workers poll for task batches and report
// completions, observers read live statistics and traces.
//
//	schedd -addr :8080 -batch 4 -ttl 15m -lease 30s
//
// Create a run and pull one assignment:
//
//	curl -s -X POST localhost:8080/v1/runs \
//	    -d '{"kernel":"outer","strategy":"2phases","n":100,"p":8,"seed":7}'
//	curl -s -X POST localhost:8080/v1/runs/<id>/next -d '{"worker":0}'
//	curl -s localhost:8080/v1/runs/<id>/stats
//
// Both modes listen through the request loop (internal/pollserve): a
// connection's polls — POST /v1/runs/{id}/next with a plain head: one
// Host, one Content-Length, no Transfer-Encoding, Expect, Upgrade or
// Connection: close — are read, answered and written by one goroutine
// with one read and one write each, and the first request that is
// anything else moves the connection, for good, to a net/http server
// over the same handler. There is nothing to configure; GET /v1/metrics
// (loop_polls) and, on a router, GET /v1/ring say how many polls took
// the loop.
//
// The next endpoint also speaks a compact binary framing for
// protocol-bytes-bound fleets: a worker sends its poll as
// Content-Type: application/x-schedd-frame and/or asks for framed
// responses via Accept (negotiated per request; everything else stays
// JSON).
//
// Watch a run live (SSE event stream, Prometheus metrics, dashboard):
//
//	curl -N localhost:8080/v1/runs/<id>/events
//	curl -s 'localhost:8080/v1/metrics?format=prometheus'
//	open http://localhost:8080/v1/ui
//
// A journaled master survives crashes: -journal-dir frames every run
// mutation into a write-ahead log before its response is released,
// -snapshot-every checkpoints the runs and prunes the log, and a
// restart replays snapshot plus tail back to the exact pre-crash state
// (serving 503 + Retry-After until the replay finishes):
//
//	schedd -addr :8080 -journal-dir /var/lib/schedd/journal -snapshot-every 5m
//
// Router mode fronts a federated fleet of schedd hosts: runs are
// placed on peers by a consistent hash of the run id, every per-run
// request is forwarded to the owner with zero body inspection (JSON
// and binary frames pass through byte-identical, SSE streams are
// relayed with Last-Event-ID resume), and /v1/metrics aggregates the
// whole fleet:
//
//	schedd -addr :8081 &
//	schedd -addr :8082 &
//	schedd -router -addr :8080 -peers http://localhost:8081,http://localhost:8082
//
// With -peer-journals the router can also move live runs between
// journaled peers (snapshot-ship-replay): POST /v1/ring/epoch bumps
// the placement epoch and migrates every run whose owner moved, and
// POST /v1/ring/recover scavenges a crashed peer's runs out of its
// journal directory onto the new ring owners — zero runs lost:
//
//	schedd -addr :8081 -journal-dir /var/lib/schedd/j1 &
//	schedd -addr :8082 -journal-dir /var/lib/schedd/j2 &
//	schedd -router -addr :8080 \
//	    -peers http://localhost:8081,http://localhost:8082 \
//	    -peer-journals /var/lib/schedd/j1,/var/lib/schedd/j2 -ring-epoch 1
//	curl -s -X POST localhost:8080/v1/ring/epoch -d '{"epoch":2}'
//	curl -s -X POST localhost:8080/v1/ring/recover -d '{"host":"http://localhost:8082","epoch":3}'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hetsched/internal/durable"
	"hetsched/internal/federation"
	"hetsched/internal/pollserve"
	"hetsched/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	batch := flag.Int("batch", 1, "default tasks per worker request (the paper's batching knob)")
	ttl := flag.Duration("ttl", 15*time.Minute, "expire runs idle for longer than this (0 = never)")
	gc := flag.Duration("gc", time.Minute, "garbage-collection interval (0 = disabled)")
	lease := flag.Duration("lease", 0, "default assignment lease: reclaim tasks a worker holds longer than this (0 = never; runs can override via lease_seconds)")
	eventsBuffer := flag.Int("events-buffer", 0, "per-subscriber event buffer and per-run retention ring for /v1/events streams (0 = default 1024); a subscriber that reads slower than events arrive drops the overflow")
	journalDir := flag.String("journal-dir", "", "durable write-ahead journal directory: every run mutation is journaled there before its response is released, and startup replays snapshot+tail back to the exact pre-crash state (empty = volatile, no journal)")
	snapshotEvery := flag.Duration("snapshot-every", 5*time.Minute, "periodic checkpoint interval with -journal-dir: snapshot every run and prune the journal behind the snapshots, bounding recovery time (0 = never; recovery then replays the whole log)")
	router := flag.Bool("router", false, "serve as a federation router over -peers instead of hosting runs")
	peers := flag.String("peers", "", "comma-separated peer base URLs for -router mode (e.g. http://h1:8080,http://h2:8080)")
	ringEpoch := flag.Uint64("ring-epoch", 0, "placement-ring epoch: bump to reshuffle where new runs land (router mode)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per peer on the placement ring (0 = default 64; router mode)")
	peerJournals := flag.String("peer-journals", "", "comma-separated journal directories aligned one-to-one with -peers (router mode): lets the router live-migrate runs on an epoch bump (POST /v1/ring/epoch) and scavenge a crashed peer's runs from its journal (POST /v1/ring/recover); empty entries mark peers without a reachable journal")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var handler pollserve.Handler
	if *router {
		urls := strings.Split(*peers, ",")
		targets := make([]federation.Target, 0, len(urls))
		for _, u := range urls {
			if u = strings.TrimSpace(u); u != "" {
				targets = append(targets, federation.Target{URL: strings.TrimRight(u, "/")})
			}
		}
		if *peerJournals != "" {
			dirs := strings.Split(*peerJournals, ",")
			if len(dirs) != len(targets) {
				log.Fatalf("schedd: -peer-journals names %d directories for %d peers", len(dirs), len(targets))
			}
			for i, d := range dirs {
				targets[i].JournalDir = strings.TrimSpace(d)
			}
		}
		rt, err := federation.NewRouter(targets, federation.Options{
			Vnodes: *vnodes,
			Epoch:  *ringEpoch,
		})
		if err != nil {
			log.Fatalf("schedd: -router: %v", err)
		}
		handler = rt
		log.Printf("schedd: routing over %d peers (epoch=%d vnodes=%d)",
			len(targets), rt.Ring().Epoch(), rt.Ring().Vnodes())
	} else {
		if *peers != "" {
			log.Fatalf("schedd: -peers needs -router")
		}
		opts := service.Options{DefaultBatch: *batch, TTL: *ttl, GCInterval: *gc,
			DefaultLease: *lease, EventsBuffer: *eventsBuffer}
		if *ttl == 0 {
			opts.TTL = -1
		}
		if *gc == 0 {
			opts.GCInterval = -1
		}
		if *journalDir != "" {
			jr, err := durable.Open(*journalDir)
			if err != nil {
				log.Fatalf("schedd: -journal-dir: %v", err)
			}
			// LIFO with svc.Close() below: the server flushes and stops
			// first, then the journal handle closes.
			defer jr.Close()
			opts.Journal = jr
			opts.SnapshotEvery = *snapshotEvery
			// Serve 503 + Retry-After while the replay runs instead of
			// delaying the listener: a router in front forwards the
			// recovering answer verbatim and pollers retry into the
			// recovered state.
			opts.AsyncRecover = true
			log.Printf("schedd: journaling to %s (snapshot every %v), replaying journal in background",
				*journalDir, *snapshotEvery)
		}
		svc := service.New(opts)
		defer svc.Close()
		handler = svc
		log.Printf("schedd: listening on %s (batch=%d ttl=%v)", *addr, *batch, *ttl)
	}

	// Both modes listen through the request loop: it answers the poll
	// route itself and hands every other request, connection and all, to
	// a net/http server over the same handler.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("schedd: %v", err)
	}
	srv := pollserve.New(handler)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	if *router {
		log.Printf("schedd: router listening on %s", *addr)
	}
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("schedd: %v", err)
	}
	<-drained // Serve returns as Shutdown begins; the polls in flight are answered before it ends
	log.Printf("schedd: shut down")
}
