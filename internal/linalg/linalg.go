// Package linalg provides the blocked linear-algebra substrate for the
// real execution runtime (package exec): l-element vector blocks,
// l×l matrix blocks, and the two elementary kernels of the paper —
// the block outer-product task M(i,j) = a_i·b_jᵀ and the block GEMM
// update task C(i,j) += A(i,k)·B(k,j).
//
// Everything is plain float64 with row-major dense blocks; the point
// is functional fidelity (the schedulers drive a real computation and
// the result is verified against references), not peak FLOPS.
package linalg

import (
	"fmt"
	"math"

	"hetsched/internal/rng"
)

// Block is a dense row-major l×l block.
type Block struct {
	L    int
	Data []float64
}

// NewBlock returns a zero l×l block.
func NewBlock(l int) *Block {
	if l <= 0 {
		panic("linalg: non-positive block size")
	}
	return &Block{L: l, Data: make([]float64, l*l)}
}

// At returns element (r, c).
func (b *Block) At(r, c int) float64 { return b.Data[r*b.L+c] }

// Set assigns element (r, c).
func (b *Block) Set(r, c int, v float64) { b.Data[r*b.L+c] = v }

// Fill fills the block with pseudo-random values in [-1, 1).
func (b *Block) Fill(r *rng.PCG) {
	for i := range b.Data {
		b.Data[i] = r.UniformRange(-1, 1)
	}
}

// MaxAbsDiff returns the largest absolute element-wise difference
// between two blocks of equal size.
func (b *Block) MaxAbsDiff(o *Block) float64 {
	if b.L != o.L {
		panic("linalg: block size mismatch")
	}
	worst := 0.0
	for i := range b.Data {
		d := math.Abs(b.Data[i] - o.Data[i])
		if d > worst {
			worst = d
		}
	}
	return worst
}

// OuterUpdate computes m = a·bᵀ for two l-element vector blocks. m is
// overwritten (outer-product tasks write each result block exactly
// once).
func OuterUpdate(a, b []float64, m *Block) {
	l := m.L
	if len(a) != l || len(b) != l {
		panic("linalg: vector block size mismatch")
	}
	for i := 0; i < l; i++ {
		ai := a[i]
		row := m.Data[i*l : (i+1)*l]
		for j := 0; j < l; j++ {
			row[j] = ai * b[j]
		}
	}
}

// GemmUpdate computes c += a·b for l×l blocks.
func GemmUpdate(c, a, b *Block) {
	l := c.L
	if a.L != l || b.L != l {
		panic("linalg: block size mismatch")
	}
	for i := 0; i < l; i++ {
		crow := c.Data[i*l : (i+1)*l]
		arow := a.Data[i*l : (i+1)*l]
		for k := 0; k < l; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Data[k*l : (k+1)*l]
			for j := 0; j < l; j++ {
				crow[j] += aik * brow[j]
			}
		}
	}
}

// BlockedVector is a vector of n blocks of size l.
type BlockedVector struct {
	N, L   int
	Blocks [][]float64
}

// NewBlockedVector returns a zero blocked vector.
func NewBlockedVector(n, l int) *BlockedVector {
	if n <= 0 || l <= 0 {
		panic("linalg: invalid blocked vector shape")
	}
	v := &BlockedVector{N: n, L: l, Blocks: make([][]float64, n)}
	backing := make([]float64, n*l)
	for i := range v.Blocks {
		v.Blocks[i] = backing[i*l : (i+1)*l]
	}
	return v
}

// Fill fills every block with pseudo-random values in [-1, 1).
func (v *BlockedVector) Fill(r *rng.PCG) {
	for _, blk := range v.Blocks {
		for i := range blk {
			blk[i] = r.UniformRange(-1, 1)
		}
	}
}

// BlockedMatrix is an n×n grid of l×l blocks.
type BlockedMatrix struct {
	N, L   int
	Blocks []*Block // row-major block grid
}

// NewBlockedMatrix returns a zero blocked matrix.
func NewBlockedMatrix(n, l int) *BlockedMatrix {
	if n <= 0 || l <= 0 {
		panic("linalg: invalid blocked matrix shape")
	}
	m := &BlockedMatrix{N: n, L: l, Blocks: make([]*Block, n*n)}
	for i := range m.Blocks {
		m.Blocks[i] = NewBlock(l)
	}
	return m
}

// Block returns block (i, j).
func (m *BlockedMatrix) Block(i, j int) *Block {
	if i < 0 || i >= m.N || j < 0 || j >= m.N {
		panic(fmt.Sprintf("linalg: block (%d,%d) out of %d×%d grid", i, j, m.N, m.N))
	}
	return m.Blocks[i*m.N+j]
}

// Clone returns a copy of m.
func (m *BlockedMatrix) Clone() *BlockedMatrix {
	c := NewBlockedMatrix(m.N, m.L)
	for i, b := range m.Blocks {
		copy(c.Blocks[i].Data, b.Data)
	}
	return c
}

// Fill fills every block with pseudo-random values in [-1, 1).
func (m *BlockedMatrix) Fill(r *rng.PCG) {
	for _, b := range m.Blocks {
		b.Fill(r)
	}
}

// MaxAbsDiff returns the largest absolute element-wise difference
// between two blocked matrices of identical shape.
func (m *BlockedMatrix) MaxAbsDiff(o *BlockedMatrix) float64 {
	if m.N != o.N || m.L != o.L {
		panic("linalg: blocked matrix shape mismatch")
	}
	worst := 0.0
	for i, b := range m.Blocks {
		if d := b.MaxAbsDiff(o.Blocks[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// ReferenceOuter computes the full outer product M = a·bᵀ serially.
func ReferenceOuter(a, b *BlockedVector) *BlockedMatrix {
	if a.N != b.N || a.L != b.L {
		panic("linalg: vector shape mismatch")
	}
	m := NewBlockedMatrix(a.N, a.L)
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			OuterUpdate(a.Blocks[i], b.Blocks[j], m.Block(i, j))
		}
	}
	return m
}

// ReferenceGemm computes the full product C = A·B serially.
func ReferenceGemm(a, b *BlockedMatrix) *BlockedMatrix {
	if a.N != b.N || a.L != b.L {
		panic("linalg: matrix shape mismatch")
	}
	c := NewBlockedMatrix(a.N, a.L)
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			for k := 0; k < a.N; k++ {
				GemmUpdate(c.Block(i, j), a.Block(i, k), b.Block(k, j))
			}
		}
	}
	return c
}
