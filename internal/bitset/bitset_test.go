package bitset

import (
	"reflect"
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

// refAppendNewlySet is AppendNewlySet spelled as the SetIfClear loop
// it replaces.
func refAppendNewlySet(b *Bitset, dst []int64, base, stride int, idx []int32) []int64 {
	for _, k := range idx {
		if i := base + stride*int(k); b.SetIfClear(i) {
			dst = append(dst, int64(i))
		}
	}
	return dst
}

// TestAppendNewlySetMatchesSetIfClear runs AppendNewlySet and the
// SetIfClear loop on two copies of a partly filled set: the same bits
// end up set, the same indices are appended in the same order after
// what dst held, and an index out of range panics in both at the same
// point (the bits and appends before it are equal). idx repeats values
// often, stride 0 sends every index to base, and idx often spans more
// than one of AppendNewlySet's 64-index chunks. dst is a slice with
// room for every index, one with room for half of them, or nil; the
// results are compared with reflect.DeepEqual, so a nil result where
// the loop returns nil counts.
func TestAppendNewlySetMatchesSetIfClear(t *testing.T) {
	f := func(nRaw uint16, baseRaw, strideRaw uint8, raw, raw2, raw3 []uint8, pre []uint16) bool {
		raw = append(append(raw, raw2...), raw3...)
		n := int(nRaw%300) + 1
		base := int(baseRaw) % n
		stride := int(strideRaw % 8)
		maxK := 0
		if stride > 0 {
			maxK = (n - 1 - base) / stride
		}
		// -1 and maxK+1 fall outside [0, n) unless the geometry allows.
		idx := make([]int32, len(raw))
		for k, v := range raw {
			idx[k] = int32(int(v)%(maxK+3)) - 1
		}
		for _, room := range []int{len(idx), len(idx) / 2, -1} {
			got, want := New(n), New(n)
			for _, v := range pre {
				got.Set(int(v) % n)
				want.Set(int(v) % n)
			}

			run := func(fn func(dst []int64) []int64) (out []int64, backing []int64, panicked bool) {
				if room >= 0 {
					backing = make([]int64, 1, room+1)
					backing[0] = -7
				}
				defer func() { panicked = recover() != nil }()
				return fn(backing), backing, false
			}
			gotOut, gotBack, gotPanic := run(func(dst []int64) []int64 {
				return AppendNewlySet(got, dst, base, stride, idx)
			})
			wantOut, wantBack, wantPanic := run(func(dst []int64) []int64 {
				return refAppendNewlySet(want, dst, base, stride, idx)
			})
			if gotPanic != wantPanic || !reflect.DeepEqual(got.words, want.words) {
				return false
			}
			if gotPanic {
				// Neither returned: compare what each appended into the
				// caller's backing array before panicking.
				if !reflect.DeepEqual(gotBack[:cap(gotBack)], wantBack[:cap(wantBack)]) {
					return false
				}
				continue
			}
			if !reflect.DeepEqual(gotOut, wantOut) || room >= 0 && gotOut[0] != -7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendNewlySetPanicsOutOfRange pins the range check on a
// stride that walks off the end and on a negative index.
func TestAppendNewlySetPanicsOutOfRange(t *testing.T) {
	for name, c := range map[string]struct {
		base, stride int
		idx          []int32
	}{
		"past end": {base: 3, stride: 4, idx: []int32{0, 1, 2}},
		"negative": {base: 0, stride: 1, idx: []int32{2, -1}},
	} {
		b := New(10)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			AppendNewlySet(b, []int64{}, c.base, c.stride, c.idx)
		}()
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
