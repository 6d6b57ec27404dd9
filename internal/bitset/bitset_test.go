package bitset

import (
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 129} {
		if b.Test(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := b.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	b.Clear(64)
	if b.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := b.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
}

func TestSetIfClear(t *testing.T) {
	b := New(10)
	if !b.SetIfClear(3) {
		t.Fatal("first SetIfClear returned false")
	}
	if b.SetIfClear(3) {
		t.Fatal("second SetIfClear returned true")
	}
	if !b.Test(3) {
		t.Fatal("bit not set")
	}
}

func TestReset(t *testing.T) {
	b := New(100)
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("Count after Reset = %d", b.Count())
	}
}

func TestForEachClear(t *testing.T) {
	b := New(8)
	b.Set(1)
	b.Set(4)
	var clear []int
	b.ForEachClear(func(i int) { clear = append(clear, i) })
	want := []int{0, 2, 3, 5, 6, 7}
	if len(clear) != len(want) {
		t.Fatalf("ForEachClear = %v, want %v", clear, want)
	}
	for i := range want {
		if clear[i] != want[i] {
			t.Fatalf("ForEachClear = %v, want %v", clear, want)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for name, fn := range map[string]func(*Bitset){
		"Set(-1)":    func(b *Bitset) { b.Set(-1) },
		"Set(n)":     func(b *Bitset) { b.Set(10) },
		"Test(n)":    func(b *Bitset) { b.Test(10) },
		"Clear(-1)":  func(b *Bitset) { b.Clear(-1) },
		"SetIfClear": func(b *Bitset) { b.SetIfClear(11) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn(New(10))
		}()
	}
}

func TestZeroCapacity(t *testing.T) {
	b := New(0)
	if b.Count() != 0 {
		t.Fatal("zero-capacity set non-empty")
	}
	b.ForEachClear(func(int) { t.Fatal("callback on empty set") })
	if b.NextSet(0) != -1 {
		t.Fatal("NextSet found a member of the empty set")
	}
}

func TestNextSet(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	for _, c := range []struct{ from, want int }{
		{-5, 0}, {0, 0}, {1, 63}, {63, 63}, {64, 64}, {65, 129}, {129, 129}, {130, -1}, {1000, -1},
	} {
		if got := b.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

// TestAgainstMapReference drives a Bitset and a map[int]bool with the
// same operation sequence and checks they agree.
func TestAgainstMapReference(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 256
		b := New(n)
		ref := map[int]bool{}
		for _, op := range ops {
			idx := int(op) % n
			switch (op / 256) % 3 {
			case 0:
				b.Set(idx)
				ref[idx] = true
			case 1:
				b.Clear(idx)
				delete(ref, idx)
			case 2:
				if b.Test(idx) != ref[idx] {
					return false
				}
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if b.Test(i) != ref[i] {
				return false
			}
		}
		// NextSet walks exactly the members, in increasing order.
		seen := 0
		for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
			if !ref[i] {
				return false
			}
			seen++
		}
		return seen == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSetTest(b *testing.B) {
	s := New(1 << 20)
	for i := 0; i < b.N; i++ {
		idx := (i * 2654435761) & (1<<20 - 1)
		s.Set(idx)
		_ = s.Test(idx)
	}
}
