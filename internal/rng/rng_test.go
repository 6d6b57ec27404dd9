package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(12345)
	b := New(12345)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("sequence diverged at step %d: %d vs %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := NewStream(1, 0)
	b := NewStream(1, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different streams produced %d/100 identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint32() == c2.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split children produced %d/100 identical values", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

// refIntn is Intn as it was first written, computing the rejection
// threshold on every draw: the oracle for the values and the number of
// draws of the form that computes it only when a draw may be rejected.
func refIntn(p *PCG, n int) int {
	bound := uint32(n)
	threshold := -bound % bound
	for {
		r := p.Uint32()
		m := uint64(r) * uint64(bound)
		if uint32(m) >= threshold {
			return int(m >> 32)
		}
	}
}

// TestIntnMatchesReference: the same values and the same generator
// position as refIntn over a million draws at each bound, among them
// the bounds whose threshold is largest (2³¹+1) and the widest one.
func TestIntnMatchesReference(t *testing.T) {
	draws := 1000000
	if testing.Short() {
		draws = 100000
	}
	for _, n := range []int{1, 2, 3, 7, 1<<31 - 1, 1 << 31, 1<<31 + 1, math.MaxUint32, 0} {
		a, b, bounds := New(uint64(n)+11), New(uint64(n)+11), New(17)
		for i := 0; i < draws; i++ {
			bound := n
			if bound == 0 { // a random bound at every draw
				bound = 1 + bounds.Intn(math.MaxUint32)
			}
			if got, want := a.Intn(bound), refIntn(b, bound); got != want {
				t.Fatalf("draw %d: Intn(%d) = %d, reference %d", i, bound, got, want)
			}
		}
		if *a != *b {
			t.Fatalf("n=%d: after %d draws the generator is at %+v, the reference at %+v", n, draws, *a, *b)
		}
	}
}

// TestIntnAboveUint32: a bound past 2³²−1 is not truncated to its low
// 32 bits; it draws what Int63n draws.
func TestIntnAboveUint32(t *testing.T) {
	for _, n := range []int{1 << 32, 1<<32 + 5, 1 << 40, math.MaxInt64} {
		a, b := New(9), New(9)
		top := 0
		for i := 0; i < 1000; i++ {
			v := a.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			if w := int(b.Int63n(int64(n))); v != w {
				t.Fatalf("draw %d: Intn(%d) = %d, Int63n %d", i, n, v, w)
			}
			top = max(top, v)
		}
		if top < n/2 {
			t.Fatalf("Intn(%d): largest of 1000 draws is %d", n, top)
		}
	}
}

func TestInt63nRange(t *testing.T) {
	r := New(5)
	for _, n := range []int64{1, 10, math.MaxUint32 + 5, 1 << 40} {
		for i := 0; i < 100; i++ {
			v := r.Int63n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", v)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		v := r.UniformRange(10, 100)
		if v < 10 || v >= 100 {
			t.Fatalf("UniformRange(10,100) = %g out of range", v)
		}
	}
}

func TestUniformRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("UniformRange(2,1) did not panic")
		}
	}()
	New(1).UniformRange(2, 1)
}

func TestIntnUniformity(t *testing.T) {
	// Loose chi-square check over 10 buckets.
	r := New(13)
	const buckets, samples = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(samples) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 degrees of freedom: chi2 above 35 would be wildly unlikely.
	if chi2 > 35 {
		t.Fatalf("Intn looks non-uniform: chi2 = %.1f, counts %v", chi2, counts)
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(17)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	for _, n := range []int{0, 1, 2, 10, 257} {
		perm := r.Perm(n)
		if len(perm) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(perm))
		}
		seen := make([]bool, n)
		for _, v := range perm {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, perm)
			}
			seen[v] = true
		}
	}
}

func TestShuffleProperty(t *testing.T) {
	// Shuffling preserves the multiset of elements.
	f := func(seed uint64, raw []int) bool {
		r := New(seed)
		orig := append([]int(nil), raw...)
		r.Shuffle(len(raw), func(i, j int) { raw[i], raw[j] = raw[j], raw[i] })
		counts := map[int]int{}
		for _, v := range orig {
			counts[v]++
		}
		for _, v := range raw {
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnQuickProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var p PCG
	// Must not panic and must produce values.
	_ = p.Uint32()
	_ = p.Uint64()
}

func BenchmarkUint32(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint32()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}
