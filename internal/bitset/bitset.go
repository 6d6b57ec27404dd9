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
