package linalg

import (
	"math"
	"testing"

	"hetsched/internal/rng"
)

// randomSPDBlock returns a well-conditioned SPD block.
func randomSPDBlock(l int, r *rng.PCG) *Block {
	m := NewBlock(l)
	m.Fill(r)
	spd := NewBlock(l)
	for i := 0; i < l; i++ {
		for j := 0; j < l; j++ {
			sum := 0.0
			for k := 0; k < l; k++ {
				sum += m.At(i, k) * m.At(j, k)
			}
			if i == j {
				sum += float64(l)
			}
			spd.Set(i, j, sum)
		}
	}
	return spd
}

func TestCholBlock(t *testing.T) {
	const l = 6
	r := rng.New(1)
	a := randomSPDBlock(l, r)
	orig := NewBlock(l)
	copy(orig.Data, a.Data)

	if err := CholBlock(a); err != nil {
		t.Fatal(err)
	}
	// L lower triangular with positive diagonal, upper zeroed.
	for i := 0; i < l; i++ {
		if a.At(i, i) <= 0 {
			t.Fatalf("non-positive diagonal L[%d][%d] = %g", i, i, a.At(i, i))
		}
		for j := i + 1; j < l; j++ {
			if a.At(i, j) != 0 {
				t.Fatalf("upper triangle not zeroed at (%d,%d)", i, j)
			}
		}
	}
	// L·Lᵀ = original.
	for i := 0; i < l; i++ {
		for j := 0; j < l; j++ {
			sum := 0.0
			for k := 0; k <= i && k <= j; k++ {
				sum += a.At(i, k) * a.At(j, k)
			}
			if math.Abs(sum-orig.At(i, j)) > 1e-10 {
				t.Fatalf("L·Lᵀ(%d,%d) = %g, want %g", i, j, sum, orig.At(i, j))
			}
		}
	}
}

func TestCholBlockRejectsIndefinite(t *testing.T) {
	a := NewBlock(2)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1)
	if err := CholBlock(a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestTrsmBlock(t *testing.T) {
	const l = 5
	r := rng.New(2)
	lkk := randomSPDBlock(l, r)
	if err := CholBlock(lkk); err != nil {
		t.Fatal(err)
	}
	a := NewBlock(l)
	a.Fill(r)
	orig := NewBlock(l)
	copy(orig.Data, a.Data)

	TrsmBlock(a, lkk)
	// Check X·Lᵀ = original.
	for i := 0; i < l; i++ {
		for j := 0; j < l; j++ {
			sum := 0.0
			for k := 0; k < l; k++ {
				sum += a.At(i, k) * lkk.At(j, k) // (X·Lᵀ)(i,j) = Σ X(i,k)·L(j,k)
			}
			if math.Abs(sum-orig.At(i, j)) > 1e-9 {
				t.Fatalf("X·Lᵀ(%d,%d) = %g, want %g", i, j, sum, orig.At(i, j))
			}
		}
	}
}

func TestSyrkAndGemmTrans(t *testing.T) {
	const l = 4
	r := rng.New(3)
	a, b := NewBlock(l), NewBlock(l)
	a.Fill(r)
	b.Fill(r)
	c1, c2 := NewBlock(l), NewBlock(l)
	c1.Fill(r)
	copy(c2.Data, c1.Data)

	// GemmTransBlock(c, a, a) must equal SyrkBlock(c, a).
	SyrkBlock(c1, a)
	GemmTransBlock(c2, a, a)
	if d := c1.MaxAbsDiff(c2); d > 1e-12 {
		t.Fatalf("SYRK vs GEMM(A,Aᵀ) differ by %g", d)
	}

	// GemmTrans subtracts A·Bᵀ.
	c3 := NewBlock(l)
	GemmTransBlock(c3, a, b)
	for i := 0; i < l; i++ {
		for j := 0; j < l; j++ {
			want := 0.0
			for k := 0; k < l; k++ {
				want -= a.At(i, k) * b.At(j, k)
			}
			if math.Abs(c3.At(i, j)-want) > 1e-12 {
				t.Fatalf("GemmTrans(%d,%d) = %g, want %g", i, j, c3.At(i, j), want)
			}
		}
	}
}

func TestTiledCholeskyMatchesResidual(t *testing.T) {
	const n, l = 4, 5
	r := rng.New(4)
	a := NewBlockedMatrix(n, l)
	RandomSPD(a, r)
	work := a.Clone()
	if err := TiledCholesky(work); err != nil {
		t.Fatal(err)
	}
	if res := CholeskyResidual(a, work); res > 1e-9 {
		t.Fatalf("|A − L·Lᵀ| = %g", res)
	}
	// Upper block triangle must be zero.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, v := range work.Block(i, j).Data {
				if v != 0 {
					t.Fatalf("upper block (%d,%d) not zeroed", i, j)
				}
			}
		}
	}
}

func TestRandomSPDIsSymmetric(t *testing.T) {
	const n, l = 3, 4
	r := rng.New(5)
	a := NewBlockedMatrix(n, l)
	RandomSPD(a, r)
	dim := n * l
	get := func(i, j int) float64 { return a.Block(i/l, j/l).At(i%l, j%l) }
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			if get(i, j) != get(j, i) {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
		if get(i, i) <= 0 {
			t.Fatalf("non-positive diagonal at %d", i)
		}
	}
}
