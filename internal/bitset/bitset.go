// Package bitset implements a dense, fixed-capacity bit set.
//
// The schedulers track per-processor data ownership (which blocks of
// a, b, A, B, C a worker holds) and the global set of processed tasks
// with bit sets; for the largest experiments in the paper these sets
// have up to 10^6 members, so a packed representation matters.
package bitset

import (
	"encoding/binary"
	"math/bits"
)

// Bitset is a fixed-capacity set of integers in [0, Len()).
type Bitset struct {
	words []uint64
	n     int
}

// New returns a bit set of capacity n with all bits clear.
func New(n int) *Bitset {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// NewSlab returns count independent bit sets of capacity n each,
// packed into a single shared backing allocation. A million-worker
// run keeps two ownership sets per worker; allocating them
// individually costs millions of tiny objects, a slab costs two.
func NewSlab(count, n int) []Bitset {
	if count < 0 || n < 0 {
		panic("bitset: negative capacity")
	}
	wordsPer := (n + 63) / 64
	words := make([]uint64, count*wordsPer)
	sets := make([]Bitset, count)
	for i := range sets {
		sets[i] = Bitset{words: words[i*wordsPer : (i+1)*wordsPer : (i+1)*wordsPer], n: n}
	}
	return sets
}

// Len returns the capacity of the set.
func (b *Bitset) Len() int { return b.n }

// Set inserts i into the set.
func (b *Bitset) Set(i int) {
	b.check(i)
	b.words[i>>6] |= 1 << uint(i&63)
}

// Clear removes i from the set.
func (b *Bitset) Clear(i int) {
	b.check(i)
	b.words[i>>6] &^= 1 << uint(i&63)
}

// Test reports whether i is in the set.
func (b *Bitset) Test(i int) bool {
	b.check(i)
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// SetIfClear inserts i and reports whether it was absent.
func (b *Bitset) SetIfClear(i int) bool {
	b.check(i)
	w, m := i>>6, uint64(1)<<uint(i&63)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	return true
}

// Add inserts i and returns 1 if it was absent, 0 if it was present:
// SetIfClear without the branch on the old bit, for callers that sum
// what they insert.
func (b *Bitset) Add(i int) int {
	b.check(i)
	w, s := &b.words[i>>6], uint(i&63)
	old := *w
	*w = old | 1<<s
	return int(old>>s&1 ^ 1)
}

// countClearIn returns the number of members k of mask whose bit
// base+k is clear in b: a popcount over b's words from base on, shifted
// into line with mask's. It panics unless [base, base+mask.Len()) lies
// in [0, Len()).
func (b *Bitset) countClearIn(base int, mask *Bitset) int {
	if base < 0 || base+mask.n > b.n {
		panic("bitset: index out of range")
	}
	words, sh := b.words[base>>6:], uint(base&63)
	c := 0
	for m, mw := range mask.words {
		w := words[m] >> sh
		if sh != 0 && m+1 < len(words) {
			w |= words[m+1] << (64 - sh)
		}
		c += bits.OnesCount64(mw &^ w)
	}
	return c
}

// AppendNewlySet inserts base+stride·idx[k] into b for each k in
// order, appending to dst every one that was absent, and returns dst.
// It is a SetIfClear loop, range check included, without the call per
// index: the dynamic strategies enumerate the tasks a fresh row or
// column covers this way.
//
// It takes idx 64 indices at a time, in two passes. The first only
// reads the set and has no data-dependent branch: it keeps, on the
// stack, each index whose bit is clear. The second sets those bits and
// appends them, dropping a repeat of one it set earlier, so dst sees
// the SetIfClear loop's appends and no other write. An index out of
// range hands its chunk and the rest to that loop before any of the
// chunk is set, so the panic comes at the same point.
func AppendNewlySet[T ~int64](b *Bitset, dst []T, base, stride int, idx []int32) []T {
	return appendNewlySet(b, dst, base, stride, idx, len(idx))
}

// AppendNewlySetIn is AppendNewlySet along the run base+idx[k], for
// distinct idx that are all members of mask. A long idx is first
// counted against b by countClearIn: none clear skips the run, and the
// scan stops at the last clear one. dst sees the same appends either
// way. A member of mask outside idx only makes the count too high, so
// the scan runs to the end; an index of idx outside mask would end it
// too early.
func AppendNewlySetIn[T ~int64](b *Bitset, dst []T, base int, idx []int32, mask *Bitset) []T {
	if len(idx) <= 2*len(mask.words) {
		return appendNewlySet(b, dst, base, 1, idx, len(idx))
	}
	return appendNewlySet(b, dst, base, 1, idx, b.countClearIn(base, mask))
}

// appendNewlySet is AppendNewlySet that stops once want indices have
// passed its first pass clear. want ≥ len(idx) never stops it early.
func appendNewlySet[T ~int64](b *Bitset, dst []T, base, stride int, idx []int32, want int) []T {
	var cand [64]T
	for len(idx) > 0 && want > 0 {
		chunk := idx[:min(len(idx), len(cand))]
		n, k := 0, 0
		for ; k < len(chunk) && n < want; k++ {
			i := base + stride*int(chunk[k])
			if uint(i) >= uint(b.n) {
				return appendNewlySetChecked(b, dst, base, stride, idx)
			}
			cand[n] = T(i)
			n += int(b.words[i>>6]>>uint(i&63)&1 ^ 1)
		}
		for _, t := range cand[:n] {
			w, m := int(t)>>6, uint64(1)<<uint(t&63)
			if b.words[w]&m == 0 {
				b.words[w] |= m
				dst = append(dst, t)
			}
		}
		want -= n
		idx = idx[k:]
	}
	return dst
}

// appendNewlySetChecked is AppendNewlySet as a SetIfClear loop: it
// panics at the first index out of range, with the indices before it
// inserted and appended.
func appendNewlySetChecked[T ~int64](b *Bitset, dst []T, base, stride int, idx []int32) []T {
	for _, k := range idx {
		i := base + stride*int(k)
		b.check(i)
		w, m := i>>6, uint64(1)<<uint(i&63)
		if b.words[w]&m == 0 {
			b.words[w] |= m
			dst = append(dst, T(i))
		}
	}
	return dst
}

// Count returns the number of elements in the set.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears every bit.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// NextSet returns the smallest member of the set at or after i, or -1
// when there is none.
func (b *Bitset) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	wi := i >> 6
	if w := b.words[wi] >> uint(i&63); w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if w := b.words[wi]; w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// ForEachClear calls fn for every value in [0, Len()) absent from the
// set, in increasing order.
func (b *Bitset) ForEachClear(fn func(i int)) {
	for i := 0; i < b.n; i++ {
		if b.words[i>>6]&(1<<uint(i&63)) == 0 {
			fn(i)
		}
	}
}

// AppendWords appends the set's packed words, 8 bytes each
// little-endian, to dst.
func (b *Bitset) AppendWords(dst []byte) []byte {
	for _, w := range b.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// LoadWords replaces the set's contents with as many words as
// AppendWords writes, taken from next, and reports whether they hold no
// member at or past Len().
func (b *Bitset) LoadWords(next func() uint64) bool {
	for i := range b.words {
		b.words[i] = next()
	}
	if tail := b.n & 63; tail != 0 && len(b.words) > 0 {
		return b.words[len(b.words)-1]>>tail == 0
	}
	return true
}

func (b *Bitset) check(i int) {
	if i < 0 || i >= b.n {
		panic("bitset: index out of range")
	}
}
