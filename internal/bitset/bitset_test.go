package bitset

import (
	"math/rand"
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

// fill sets each bit of s with probability num/8, from r.
func fill(s *Bitset, r *rand.Rand, num int) {
	for i := 0; i < s.Len(); i++ {
		if r.Intn(8) < num {
			s.Set(i)
		}
	}
}

// TestCountClearIn checks the masked popcount against a loop over the
// mask's members, on rows at unaligned bases, masks of one to three
// words with a partial last word, and rows that end at the set's last
// bit, each at several fill densities.
func TestCountClearIn(t *testing.T) {
	for _, tc := range []struct {
		name       string
		size, base int
		maskBits   int
		wantPanic  bool
	}{
		{name: "aligned, one word", size: 256, base: 0, maskBits: 64},
		{name: "unaligned, partial word", size: 256, base: 5, maskBits: 40},
		{name: "unaligned, two words", size: 300, base: 70, maskBits: 100},
		{name: "unaligned, three words", size: 400, base: 13, maskBits: 150},
		{name: "ends at last bit, unaligned", size: 300, base: 170, maskBits: 130},
		{name: "ends at last bit, aligned", size: 256, base: 128, maskBits: 128},
		{name: "ends at last bit, one bit", size: 65, base: 64, maskBits: 1},
		{name: "whole set", size: 150, base: 0, maskBits: 150},
		{name: "empty mask", size: 10, base: 10, maskBits: 0},
		{name: "past the end", size: 100, base: 40, maskBits: 61, wantPanic: true},
		{name: "negative base", size: 100, base: -1, maskBits: 10, wantPanic: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(tc.size + tc.base)))
			for num := 0; num <= 8; num += 2 {
				b, mask := New(tc.size), New(tc.maskBits)
				fill(b, r, num)
				fill(mask, r, 8-num/2)
				want := 0
				if !tc.wantPanic {
					for k := 0; k < tc.maskBits; k++ {
						if mask.Test(k) && !b.Test(tc.base+k) {
							want++
						}
					}
				}
				got, panicked := func() (c int, panicked bool) {
					defer func() { panicked = recover() != nil }()
					return b.countClearIn(tc.base, mask), false
				}()
				if panicked != tc.wantPanic || got != want {
					t.Fatalf("fill %d/8: got (%d, panic %v), want (%d, panic %v)", num, got, panicked, want, tc.wantPanic)
				}
			}
		})
	}
}

// TestAddMatchesSetIfClear: Add returns 1 exactly where SetIfClear
// returns true, and leaves the same bits set.
func TestAddMatchesSetIfClear(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
		idx  []int
	}{
		{name: "one word", size: 10, idx: []int{3, 3, 0, 9, 0}},
		{name: "word edges", size: 130, idx: []int{63, 64, 63, 127, 128, 129, 64}},
		{name: "every bit twice", size: 70, idx: append(seq(70), seq(70)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := New(tc.size), New(tc.size)
			for _, i := range tc.idx {
				a, s := got.Add(i), want.SetIfClear(i)
				if (a == 1) != s || a&^1 != 0 {
					t.Fatalf("index %d: Add %d, SetIfClear %v", i, a, s)
				}
			}
			if !reflect.DeepEqual(got.words, want.words) {
				t.Fatal("Add and SetIfClear leave different bits set")
			}
		})
	}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestAppendNewlySetInMatches: AppendNewlySetIn appends what
// AppendNewlySet does along the same run and sets the same bits, when
// its mask holds exactly idx's indices and when it holds more. The
// lists are short (the plain scan) and long (counted first), and the
// runs start at unaligned bases and end at the set's last bit.
func TestAppendNewlySetInMatches(t *testing.T) {
	for _, tc := range []struct {
		name             string
		size, base, span int
		listLen          int
		extra            bool
	}{
		{name: "short list", size: 200, base: 7, span: 90, listLen: 4},
		{name: "long list, exact mask", size: 200, base: 7, span: 90, listLen: 60},
		{name: "long list, wider mask", size: 200, base: 7, span: 90, listLen: 60, extra: true},
		{name: "three-word run at the end", size: 1000, base: 850, span: 150, listLen: 140},
		{name: "full run", size: 128, base: 0, span: 128, listLen: 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(tc.size*tc.span + tc.listLen)))
			for num := 0; num <= 8; num++ {
				got, want := New(tc.size), New(tc.size)
				fill(got, r, num)
				copy(want.words, got.words)
				perm := r.Perm(tc.span)[:tc.listLen]
				idx := make([]int32, len(perm))
				mask := New(tc.span)
				for k, v := range perm {
					idx[k] = int32(v)
					mask.Set(v)
				}
				if tc.extra {
					fill(mask, r, 4)
				}
				gotOut := AppendNewlySetIn(got, []int64{-7}, tc.base, idx, mask)
				wantOut := AppendNewlySet(want, []int64{-7}, tc.base, 1, idx)
				if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(got.words, want.words) {
					t.Fatalf("fill %d/8: appended %v, AppendNewlySet %v", num, gotOut, wantOut)
				}
			}
		})
	}
}
