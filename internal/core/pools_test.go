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
