package core

import (
	"testing"
	"testing/quick"

	"hetsched/internal/rng"
)

func TestIndexPoolDrainsExactlyOnce(t *testing.T) {
	r := rng.New(1)
	const n = 257
	p := NewIndexPool(n)
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		idx, ok := p.Draw(r)
		if !ok {
			t.Fatalf("pool empty after %d draws, want %d", i, n)
		}
		if idx < 0 || idx >= n || seen[idx] {
			t.Fatalf("draw %d returned invalid or duplicate index %d", i, idx)
		}
		seen[idx] = true
		if p.Left() != n-i-1 {
			t.Fatalf("Left = %d after %d draws", p.Left(), i+1)
		}
	}
	if _, ok := p.Draw(r); ok {
		t.Fatal("draw from drained pool succeeded")
	}
}

func TestIndexPoolFirstDrawUniform(t *testing.T) {
	// The first draw from a fresh pool over [0,4) should be roughly
	// uniform across seeds.
	counts := make([]int, 4)
	for seed := uint64(0); seed < 4000; seed++ {
		p := NewIndexPool(4)
		idx, _ := p.Draw(rng.New(seed))
		counts[idx]++
	}
	for v, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("index %d drawn %d/4000 times, expected ~1000", v, c)
		}
	}
}

func TestTaskPoolDraw(t *testing.T) {
	r := rng.New(2)
	tasks := []Task{10, 20, 30, 40}
	p := NewTaskPool(append([]Task(nil), tasks...))
	got := map[Task]bool{}
	for i := 0; i < len(tasks); i++ {
		v, ok := p.Draw(r)
		if !ok {
			t.Fatal("pool drained early")
		}
		if got[v] {
			t.Fatalf("task %d drawn twice", v)
		}
		got[v] = true
	}
	if _, ok := p.Draw(r); ok {
		t.Fatal("draw from empty pool succeeded")
	}
}

func TestTaskPoolProperty(t *testing.T) {
	// Drawing everything returns exactly the initial multiset.
	f := func(seed uint64, raw []int16) bool {
		tasks := make([]Task, len(raw))
		counts := map[Task]int{}
		for i, v := range raw {
			tasks[i] = Task(v)
			counts[Task(v)]++
		}
		p := NewTaskPool(tasks)
		r := rng.New(seed)
		for {
			v, ok := p.Draw(r)
			if !ok {
				break
			}
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// swapRemove is TaskPool.Draw as a plain swap-remove, the reference
// for the prefetching one.
func swapRemove(tasks *[]Task, r *rng.PCG) (Task, bool) {
	n := len(*tasks)
	if n == 0 {
		return 0, false
	}
	at := r.Intn(n)
	v := (*tasks)[at]
	(*tasks)[at] = (*tasks)[n-1]
	*tasks = (*tasks)[:n-1]
	return v, true
}

// TestTaskPoolDrawMatchesSwapRemove drains a TaskPool and a plain
// swap-remove reference side by side, each on its own copy of one
// generator, and compares every draw and the generators after it.
// Between draws the generators may be drawn from by something else, a
// run may be rewound to an earlier state with RestoreState (into the
// pool itself or a fresh one), or the pool may be rebuilt from what is
// left after index-pool draws, as a two-phase strategy's switch does.
func TestTaskPoolDrawMatchesSwapRemove(t *testing.T) {
	for _, tc := range []struct {
		name         string
		n            int
		foreignEvery int  // draw a Uint32 from both generators before every k-th draw
		rewind       bool // at draw n/2 return to the state of draw n/4
		fresh        bool // rewind into a new pool rather than the same one
		switchAt     int  // rebuild the pool before this draw (0: never)
	}{
		{name: "plain", n: 1000},
		{name: "tiny", n: 3},
		{name: "foreign draws", n: 1000, foreignEvery: 7},
		{name: "foreign draw every time", n: 300, foreignEvery: 1},
		{name: "rewound in place", n: 1000, rewind: true},
		{name: "rewound into a fresh pool", n: 1000, rewind: true, fresh: true},
		{name: "switch", n: 1000, switchAt: 400},
		{name: "switch near the end", n: 50, switchAt: 48, foreignEvery: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(uint64(tc.n))
			ref := *r
			tasks := make([]Task, tc.n)
			for i := range tasks {
				tasks[i] = Task(3 * i)
			}
			p := NewTaskPool(append([]Task(nil), tasks...))
			var saved, savedR []byte
			var savedRef []Task
			var savedRefR rng.PCG
			for k := 0; ; k++ {
				if tc.foreignEvery > 0 && k%tc.foreignEvery == 0 {
					r.Uint32()
					ref.Uint32()
				}
				if tc.rewind && k == tc.n/4 {
					saved, savedR = p.AppendState(nil), r.AppendState(nil)
					savedRef, savedRefR = append([]Task(nil), tasks...), ref
				}
				if tc.rewind && k == tc.n/2 {
					if tc.fresh {
						p = NewTaskPool(nil)
					}
					sr := NewStateReader(saved)
					p.RestoreState(sr, len(savedRef), func(Task) bool { return true })
					if err := sr.Done(); err != nil {
						t.Fatal(err)
					}
					if err := r.RestoreState(savedR); err != nil {
						t.Fatal(err)
					}
					tasks, ref = savedRef, savedRefR
				}
				if k == tc.switchAt && k > 0 {
					ip, refIP := NewIndexPool(40), NewIndexPool(40)
					ip.Draw(r)
					refIP.Draw(&ref)
					p = NewTaskPool(append([]Task(nil), p.tasks...))
				}
				got, ok := p.Draw(r)
				want, wantOK := swapRemove(&tasks, &ref)
				if got != want || ok != wantOK || *r != ref {
					t.Fatalf("draw %d: got (%d, %v), reference (%d, %v); generators equal: %v", k, got, ok, want, wantOK, *r == ref)
				}
				if !ok {
					break
				}
			}
		})
	}
}
