package federation

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"hetsched/internal/durable"
	"hetsched/internal/service"
)

// fleet is a router over n hosts, each in-process or behind a listener.
type fleet struct {
	rt      *Router
	servers []*service.Server
	// backends[i] fronts host i when it is a URL target, else nil.
	backends []*httptest.Server
}

// newFleet builds n hosts, host i a URL target when remote(i), each with
// a journal (and the JournalDir RecoverHost reads) when journaled.
func newFleet(t testing.TB, n int, remote func(i int) bool, journaled bool) *fleet {
	t.Helper()
	names := HostNames(n)
	f := &fleet{servers: make([]*service.Server, n), backends: make([]*httptest.Server, n)}
	targets := make([]Target, n)
	for i := range f.servers {
		opts := service.Options{GCInterval: -1}
		targets[i].Name = names[i]
		if journaled {
			targets[i].JournalDir = t.TempDir()
			jr, err := durable.Open(targets[i].JournalDir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { jr.Close() })
			opts.Journal = jr
		}
		f.servers[i] = service.New(opts)
		t.Cleanup(f.servers[i].Close)
		if remote(i) {
			f.backends[i] = httptest.NewServer(f.servers[i])
			t.Cleanup(f.backends[i].Close)
			targets[i].URL = f.backends[i].URL
		} else {
			targets[i].Server = f.servers[i]
		}
	}
	rt, err := NewRouter(targets, Options{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	return f
}

// kill stops host i, listener and server; its journal stays on disk.
func (f *fleet) kill(i int) {
	if f.backends[i] != nil {
		f.backends[i].Close()
	}
	f.servers[i].Close()
}

// holders lists the hosts whose registry holds id.
func (f *fleet) holders(id string) []int {
	var at []int
	for i, s := range f.servers {
		if _, ok := s.Registry().Get(id); ok {
			at = append(at, i)
		}
	}
	return at
}

// drain polls run id round-robin through the router until every worker
// is told done, starting from the batches in pending, and reports how
// many distinct tasks were accepted and whether each was accepted once.
func drain(t *testing.T, rt http.Handler, id string, pending [][]int64) (distinct int, once bool) {
	t.Helper()
	accepted := make(map[int64]int)
	done := make([]bool, len(pending))
	for left := len(pending); left > 0; {
		for w := range pending {
			if done[w] {
				continue
			}
			resp := pollVia(t, rt, id, w, pending[w])
			for _, task := range pending[w] {
				accepted[task]++
			}
			pending[w] = resp.Tasks
			if resp.Status == service.StatusDone {
				done[w] = true
				left--
			}
		}
	}
	once = true
	for _, n := range accepted {
		once = once && n == 1
	}
	return len(accepted), once
}

// idWhere returns the first id prefix-<i> that ok accepts.
func idWhere(t *testing.T, prefix string, ok func(id string) bool) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		if id := fmt.Sprintf("%s-%d", prefix, i); ok(id) {
			return id
		}
	}
	t.Fatalf("no %s id in 100000 candidates", prefix)
	return ""
}

// runBody is the create request of a small flat run; an empty id asks
// the router to mint one.
func runBody(id string) string {
	b, _ := json.Marshal(service.CreateRunRequest{
		ID: id, Kernel: service.KernelOuter, Strategy: "2phases", N: 8, P: 4, Seed: 11, Batch: 2,
	})
	return string(b)
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return "error"
}

// TestRouterTopologies drives one script — create with a pinned and a
// minted id, list, metrics, a run polled to done, stats, MigrateRun,
// SetEpoch and RecoverHost — through a router over in-process hosts and
// over URL hosts, and asserts the same status codes and the same ledger
// on both: how the router reaches a host must not change what it does.
func TestRouterTopologies(t *testing.T) {
	want := []string{
		"create pinned: 201",
		"create minted: 201 router id true",
		"create duplicate: 409",
		"list: 200 2 runs",
		"metrics: 200 2 runs 3 hosts",
		"drain a: 64 tasks once true",
		"stats a: 200 64/64 complete",
		"migrate minted: ok, held there true, routed there true",
		"delete gone: 200",
		"set epoch 2: ok, 0 parked",
		"placement: a true, minted true, b true",
		"recover b's host: ok moved true",
		"drain b: 64 tasks once true",
	}
	topologies := []struct {
		name   string
		remote func(int) bool
	}{
		{"direct", func(int) bool { return false }},
		{"http", func(int) bool { return true }},
	}
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			f := newFleet(t, 3, topo.remote, true)
			rt := f.rt
			var got []string
			logf := func(format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) }

			ring1 := rt.Ring()
			ring2, err := NewRing(ring1.Hosts(), ring1.Vnodes(), 2)
			if err != nil {
				t.Fatal(err)
			}
			// a and gone change owner at epoch 2; b is on host 1 after it.
			a := idWhere(t, "a", func(id string) bool { return ring1.Owner(id) == 0 && ring2.Owner(id) != 0 })
			gone := idWhere(t, "gone", func(id string) bool { return ring1.Owner(id) == 2 && ring2.Owner(id) != 2 })
			b := idWhere(t, "b", func(id string) bool { return ring2.Owner(id) == 1 })

			rec := poll(rt, http.MethodPost, "/v1/runs", runBody(a))
			logf("create pinned: %d", rec.Code)
			rec = poll(rt, http.MethodPost, "/v1/runs", runBody(""))
			var minted service.RunInfo
			json.Unmarshal(rec.Body.Bytes(), &minted)
			logf("create minted: %d router id %v", rec.Code, strings.HasPrefix(minted.ID, "f"))
			rec = poll(rt, http.MethodPost, "/v1/runs", runBody(a))
			logf("create duplicate: %d", rec.Code)

			rec = poll(rt, http.MethodGet, "/v1/runs", "")
			var list service.RunList
			json.Unmarshal(rec.Body.Bytes(), &list)
			logf("list: %d %d runs", rec.Code, len(list.Runs))
			rec = poll(rt, http.MethodGet, "/v1/metrics", "")
			var m service.MetricsResponse
			json.Unmarshal(rec.Body.Bytes(), &m)
			logf("metrics: %d %d runs %d hosts", rec.Code, m.Runs, m.Hosts)

			n, once := drain(t, rt, a, make([][]int64, 4))
			logf("drain a: %d tasks once %v", n, once)
			rec = poll(rt, http.MethodGet, "/v1/runs/"+a+"/stats", "")
			var st service.StatsResponse
			json.Unmarshal(rec.Body.Bytes(), &st)
			logf("stats a: %d %d/%d %s", rec.Code, st.Completed, st.Total, st.State)

			dst := (rt.OwnerOf(minted.ID) + 1) % 3
			err = rt.MigrateRun(minted.ID, ring1.Hosts()[dst])
			logf("migrate minted: %s, held there %v, routed there %v", errString(err),
				slices.Equal(f.holders(minted.ID), []int{dst}), rt.OwnerOf(minted.ID) == dst)

			createVia(t, rt, b)
			pending := make([][]int64, 4)
			for w := range pending {
				pending[w] = pollVia(t, rt, b, w, nil).Tasks
			}
			createVia(t, rt, gone)
			rec = poll(rt, http.MethodDelete, "/v1/runs/"+gone, "")
			logf("delete gone: %d", rec.Code)

			err = rt.SetEpoch(2)
			if err != nil {
				t.Logf("SetEpoch(2): %v", err)
			}
			parked := 0
			if o := rt.overrides.Load(); o != nil {
				parked = len(*o)
			}
			logf("set epoch 2: %s, %d parked", errString(err), parked)
			placed := func(id string) bool {
				o := rt.Ring().Owner(id)
				return rt.OwnerOf(id) == o && slices.Equal(f.holders(id), []int{o})
			}
			logf("placement: a %v, minted %v, b %v", placed(a), placed(minted.ID), placed(b))

			dead := rt.OwnerOf(b)
			f.kill(dead)
			err = rt.RecoverHost(ring1.Hosts()[dead], 2)
			if err != nil {
				t.Logf("RecoverHost: %v", err)
			}
			logf("recover b's host: %s moved %v", errString(err), rt.OwnerOf(b) != dead)
			n, once = drain(t, rt, b, pending)
			logf("drain b: %d tasks once %v", n, once)

			if !slices.Equal(got, want) {
				t.Errorf("ledger:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
			}
		})
	}

	// A mixed fleet: host 0 in-process, the rest URL targets. An
	// in-process source pushes to a URL destination; a URL source has no
	// way to reach an in-process one, and says which.
	t.Run("mixed", func(t *testing.T) {
		f := newFleet(t, 3, func(i int) bool { return i > 0 }, false)
		rt := f.rt
		id := idOwnedBy(t, rt.Ring(), 0)
		createVia(t, rt, id)
		if err := rt.MigrateRun(id, "host-1"); err != nil {
			t.Fatalf("in-process → URL: %v", err)
		}
		if h := f.holders(id); !slices.Equal(h, []int{1}) || rt.OwnerOf(id) != 1 {
			t.Fatalf("after in-process → URL: held by %v, routed to %d; want host 1", h, rt.OwnerOf(id))
		}
		err := rt.MigrateRun(id, "host-0")
		if err == nil || !strings.Contains(err.Error(), `"host-0"`) {
			t.Fatalf("URL → in-process: %v, want a refusal naming host-0", err)
		}
		if h := f.holders(id); !slices.Equal(h, []int{1}) || rt.OwnerOf(id) != 1 {
			t.Fatalf("after the refusal: held by %v, routed to %d; want host 1", h, rt.OwnerOf(id))
		}
		pollVia(t, rt, id, 0, nil)
	})
}
