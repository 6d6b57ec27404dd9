// Package rng provides a small, deterministic, seedable pseudo-random
// number generator used throughout the library.
//
// All randomness in the simulator, the schedulers and the experiment
// harness flows through this package so that every figure of the paper
// can be regenerated bit-for-bit from a seed. The generator is PCG32
// (Permuted Congruential Generator, O'Neill 2014) with a 64-bit state
// and a 63-bit stream selector, which makes it cheap to derive
// independent sub-streams for replications (see Split).
package rng

import (
	"encoding/binary"
	"errors"
	"math"
)

const (
	pcgMultiplier = 6364136223846793005
	pcgIncrement  = 1442695040888963407
)

// PCG is a PCG32 generator. The zero value is a valid generator seeded
// with zero; prefer New for explicit seeding.
type PCG struct {
	state uint64
	inc   uint64 // odd stream selector
}

// New returns a generator seeded with seed on the default stream.
func New(seed uint64) *PCG {
	return NewStream(seed, 0)
}

// NewStream returns a generator seeded with seed on the given stream.
// Generators with the same seed but different streams produce
// statistically independent sequences.
func NewStream(seed, stream uint64) *PCG {
	p := &PCG{inc: stream<<1 | 1}
	p.state = p.inc + seed
	p.step()
	return p
}

// Split derives a new, independent generator from p. The child stream
// is a function of the parent's current state, so successive Split
// calls yield distinct streams while leaving the parent usable.
func (p *PCG) Split() *PCG {
	seed := p.Uint64()
	stream := p.Uint64()
	return NewStream(seed, stream)
}

func (p *PCG) step() {
	p.state = p.state*pcgMultiplier + p.inc
}

// StateBytes is the length of the state AppendState writes.
const StateBytes = 16

// AppendState appends the generator's position — state, then stream
// selector, each an 8-byte little-endian word — to dst.
func (p *PCG) AppendState(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, p.state)
	return binary.LittleEndian.AppendUint64(dst, p.inc)
}

// RestoreState moves the generator to the position AppendState wrote
// in src, which must be exactly StateBytes long with an odd stream
// selector; on error the generator is unchanged.
func (p *PCG) RestoreState(src []byte) error {
	if len(src) != StateBytes {
		return errors.New("rng: state is not 16 bytes")
	}
	inc := binary.LittleEndian.Uint64(src[8:])
	if inc&1 == 0 {
		return errors.New("rng: state has an even stream selector")
	}
	p.state, p.inc = binary.LittleEndian.Uint64(src), inc
	return nil
}

// Uint32 returns a uniformly distributed 32-bit value.
func (p *PCG) Uint32() uint32 {
	old := p.state
	p.step()
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (p *PCG) Uint64() uint64 {
	return uint64(p.Uint32())<<32 | uint64(p.Uint32())
}

// Intn returns a uniformly distributed int in [0, n). It panics if
// n <= 0. Lemire's nearly-divisionless rejection method keeps the
// distribution exactly uniform: the rejection threshold, 2³² mod n, is
// below n, so it is computed only for a draw whose low word is. A
// bound past 2³²−1 is Int63n's.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	if uint64(n) > math.MaxUint32 {
		return int(p.Int63n(int64(n)))
	}
	bound := uint32(n)
	m := uint64(p.Uint32()) * uint64(bound)
	if uint32(m) < bound {
		threshold := -bound % bound
		for uint32(m) < threshold {
			m = uint64(p.Uint32()) * uint64(bound)
		}
	}
	return int(m >> 32)
}

// Int63n returns a uniformly distributed int64 in [0, n). It panics if
// n <= 0.
func (p *PCG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	if n <= math.MaxUint32 {
		return int64(p.Intn(int(n)))
	}
	max := uint64(math.MaxUint64 - math.MaxUint64%uint64(n))
	for {
		v := p.Uint64()
		if v < max {
			return int64(v % uint64(n))
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (p *PCG) Float64() float64 {
	// 53 random bits scaled by 2^-53.
	return float64(p.Uint64()>>11) / (1 << 53)
}

// UniformRange returns a uniformly distributed float64 in [lo, hi).
// It panics if hi < lo.
func (p *PCG) UniformRange(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: UniformRange with hi < lo")
	}
	return lo + (hi-lo)*p.Float64()
}

// Shuffle pseudo-randomizes the order of n elements using the
// Fisher-Yates algorithm. swap exchanges elements i and j.
func (p *PCG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		swap(i, j)
	}
}
