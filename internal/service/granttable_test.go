package service

import (
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/outer"
	"hetsched/internal/rng"
)

// TestGrantTableDifferential churns a grantTable against a reference
// map with the poll path's operation mix — insert batches, complete
// (take) batches, wrong-owner probes, overwrites, deletes — and checks
// full agreement after every operation burst. Backward-shift deletion
// is exactly the kind of code that works on straight-line tests and
// breaks on adversarial probe-chain overlap, hence the randomized
// differential form.
func TestGrantTableDifferential(t *testing.T) {
	r := rng.New(42)
	var g grantTable
	ref := map[int64]gtSlot{}
	maxDisplaced := 0

	check := func(step int) {
		t.Helper()
		if g.n != len(ref) {
			t.Fatalf("step %d: n=%d, ref has %d", step, g.n, len(ref))
		}
		count := 0
		g.forEach(func(task core.Task, worker int32, expiryNs int64) {
			count++
			want, ok := ref[int64(task)]
			if !ok {
				t.Fatalf("step %d: table holds %d, ref does not", step, task)
			}
			if want.worker != worker || want.expiryNs != expiryNs {
				t.Fatalf("step %d: task %d = (%d,%d), want (%d,%d)",
					step, task, worker, expiryNs, want.worker, want.expiryNs)
			}
		})
		if count != len(ref) {
			t.Fatalf("step %d: forEach visited %d, ref has %d", step, count, len(ref))
		}
		maxDisplaced = max(maxDisplaced, displaced(&g))
		// Every ref entry must be reachable by probing, not just by scan.
		for task, want := range ref {
			worker, expiryNs, ok := g.get(core.Task(task))
			if !ok || worker != want.worker || expiryNs != want.expiryNs {
				t.Fatalf("step %d: get(%d) = (%d,%d,%v), want (%d,%d,true)",
					step, task, worker, expiryNs, ok, want.worker, want.expiryNs)
			}
		}
	}

	// Keys drawn from a small universe of clustered keys (see
	// clusteredKey) share one long probe chain at every table size.
	key := func() int64 { return clusteredKey(int64(r.Intn(97))) }

	for step := 0; step < 3000; step++ {
		switch r.Intn(5) {
		case 0, 1: // grant a batch
			worker := int32(r.Intn(8))
			exp := int64(r.Intn(1000)) + 1
			for k := 0; k < r.Intn(6)+1; k++ {
				task := key()
				g.put(core.Task(task), worker, exp)
				ref[task] = gtSlot{task: task, worker: worker, expiryNs: exp}
			}
		case 2: // complete a batch (take owned)
			worker := int32(r.Intn(8))
			for k := 0; k < r.Intn(6)+1; k++ {
				task := key()
				want, inRef := ref[task]
				s, found, took := g.takeOwned(core.Task(task), worker)
				if found != inRef {
					t.Fatalf("step %d: takeOwned(%d,%d) found=%v, ref=%v", step, task, worker, found, inRef)
				}
				if !inRef {
					continue
				}
				if s.worker != want.worker || s.expiryNs != want.expiryNs {
					t.Fatalf("step %d: takeOwned(%d) slot %+v, want %+v", step, task, s, want)
				}
				if wantTook := want.worker == worker; took != wantTook {
					t.Fatalf("step %d: takeOwned(%d,%d) took=%v, want %v", step, task, worker, took, wantTook)
				}
				if took {
					delete(ref, task)
				}
			}
		case 3: // reclaim-style deletes
			for k := 0; k < r.Intn(4)+1; k++ {
				task := key()
				_, inRef := ref[task]
				if got := g.del(core.Task(task)); got != inRef {
					t.Fatalf("step %d: del(%d) = %v, ref = %v", step, task, got, inRef)
				}
				delete(ref, task)
			}
		case 4: // misses and wrong-owner probes must not disturb anything
			task := key()
			want, inRef := ref[task]
			worker, expiryNs, ok := g.get(core.Task(task))
			if ok != inRef {
				t.Fatalf("step %d: get(%d) ok=%v, ref=%v", step, task, ok, inRef)
			}
			if inRef && (worker != want.worker || expiryNs != want.expiryNs) {
				t.Fatalf("step %d: get(%d) = (%d,%d), want (%d,%d)",
					step, task, worker, expiryNs, want.worker, want.expiryNs)
			}
		}
		check(step)
	}
	// The table peaks near 80 resident keys; nearly all must sit off
	// their home slot, or deletes never shift and the test checks little.
	if maxDisplaced < 60 {
		t.Fatalf("at most %d entries ever sat off their home slot, want >= 60", maxDisplaced)
	}
}

// clusteredKey returns the i-th multiple of F_24 = 46368. Fibonacci
// hashing maps i*F_m to about i*φ^-m of the way round the table, so
// the homes of consecutive keys lie 1/103,682 of the way apart: less
// than one slot in every table of up to 2^16 slots, where such keys
// pile into one probe chain.
func clusteredKey(i int64) int64 { return i * 46368 }

// displaced counts the resident entries that sit off their home slot.
func displaced(g *grantTable) int {
	n := 0
	for i := range g.slots {
		s := &g.slots[i]
		if s.state == gtFull && g.home(s.task) != uint64(i) {
			n++
		}
	}
	return n
}

// get reports the slot holding t, if any, by probing from its home.
func (g *grantTable) get(t core.Task) (worker int32, expiryNs int64, ok bool) {
	if g.n == 0 {
		return 0, 0, false
	}
	i := g.home(int64(t))
	for {
		s := &g.slots[i]
		if s.state != gtFull {
			return 0, 0, false
		}
		if s.task == int64(t) {
			return s.worker, s.expiryNs, true
		}
		i = (i + 1) & g.mask
	}
}

// TestGrantTableGrowth fills one table far past its initial size and
// verifies every entry survives the rehashes, then drains it in two
// passes, checking the survivors after the first. Spread keys cross
// gtSparseMax, where the table starts growing at load 3/4; clustered
// keys form one probe chain as long as the table's population.
func TestGrantTableGrowth(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n         int
		key       func(i int) int64
		slots     int // table size once all n keys are in
		displaced int // minimum entries off their home slot
	}{
		{"spread", 60000, func(i int) int64 { return int64(i) * 7 }, 1 << 17, 0},
		{"clustered", 4000, func(i int) int64 { return clusteredKey(int64(i)) }, 1 << 14, 3000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var g grantTable
			for i := 0; i < tc.n; i++ {
				g.put(core.Task(tc.key(i)), int32(i%31), int64(i)+1)
			}
			if g.n != tc.n || len(g.slots) != tc.slots {
				t.Fatalf("n = %d in %d slots, want %d in %d", g.n, len(g.slots), tc.n, tc.slots)
			}
			if d := displaced(&g); d < tc.displaced {
				t.Fatalf("%d entries off their home slot, want >= %d", d, tc.displaced)
			}
			for i := 0; i < tc.n; i++ {
				worker, exp, ok := g.get(core.Task(tc.key(i)))
				if !ok || worker != int32(i%31) || exp != int64(i)+1 {
					t.Fatalf("get(%d) = (%d,%d,%v)", tc.key(i), worker, exp, ok)
				}
			}
			for pass := 0; pass < 2; pass++ {
				for i := pass; i < tc.n; i += 2 {
					if !g.del(core.Task(tc.key(i))) {
						t.Fatalf("del(%d) missed", tc.key(i))
					}
				}
				for i := 0; i < tc.n; i++ {
					_, _, ok := g.get(core.Task(tc.key(i)))
					if want := pass == 0 && i%2 == 1; ok != want {
						t.Fatalf("pass %d: get(%d) ok=%v, want %v", pass, tc.key(i), ok, want)
					}
				}
			}
			if g.n != 0 {
				t.Fatalf("drained table has n = %d", g.n)
			}
		})
	}
}

// TestGrantTablePresize: a run holds no grant table until its first
// grant, which sizes it for two batches per worker at the sparse load
// limit, capped at gtPresizeMax slots for a large fleet.
func TestGrantTablePresize(t *testing.T) {
	for _, tc := range []struct {
		name     string
		p, batch int
		slots    int
	}{
		{name: "one worker, batch 1", p: 1, batch: 1, slots: gtMinSize},
		{name: "small fleet", p: 4, batch: 4, slots: 128},
		{name: "benchmark fleet", p: 64, batch: 4, slots: 2048},
		{name: "large fleet", p: 100000, batch: 4, slots: gtPresizeMax},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHost(core.NewSchedulerDriver(outer.NewRandom(4, tc.p, rng.New(1))), tc.batch, 0)
			if h.outstanding.slots != nil {
				t.Fatal("an unpolled run holds a grant table")
			}
			if _, status, err := h.Next(0, nil); err != nil || status != StatusOK {
				t.Fatalf("first poll: %s, %v", status, err)
			}
			if got := len(h.outstanding.slots); got != tc.slots {
				t.Fatalf("first grant sized the table at %d slots, want %d", got, tc.slots)
			}
		})
	}
}
