package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSparse(rng *rand.Rand, rows, cols int, density float64) *CSRTile {
	t := NewTile(rows, cols)
	for i := range t.Data {
		if rng.Float64() < density {
			t.Data[i] = rng.NormFloat64()
		}
	}
	return DenseToCSR(t)
}

func TestCSRRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := NewTile(1+rng.Intn(15), 1+rng.Intn(15))
		for i := range tl.Data {
			if rng.Float64() < 0.3 {
				tl.Data[i] = rng.NormFloat64()
			}
		}
		return DenseToCSR(tl).ToDense().Equal(tl)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// forEachAxpy runs body under the portable axpy loop and, where package
// init selected it, under the AVX2 routine (forEachKernel's twin for the
// CSR kernels).
func forEachAxpy(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	selected := axpy
	defer func() { axpy = selected }()
	axpy = axpyScalar
	t.Run("scalar", body)
	if len(microKernels) == 1 {
		t.Log("AVX2 arm skipped: this build or CPU has only the scalar axpy")
		return
	}
	axpy = selected
	t.Run("avx2", body)
}

// TestAxpyMatchesScalar holds the selected axpy to the portable loop bit
// for bit: every length across the vector width and its tail, every
// 8-byte offset of both operands within a 32-byte vector, finite and
// special values (a NaN must be a NaN; payloads are the hardware's), and
// not one element written past len(x).
func TestAxpyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fill := func(v []float64, special bool) {
		for i := range v {
			if special && rng.Intn(3) > 0 {
				v[i] = specialValues[rng.Intn(len(specialValues))]
			} else {
				v[i] = rng.NormFloat64()
			}
		}
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			for _, special := range []bool{false, true} {
				xbuf, ybuf := make([]float64, off+n), make([]float64, (off+1)%4+n+3)
				fill(xbuf, special)
				fill(ybuf, special)
				x, got := xbuf[off:], ybuf[(off+1)%4:]
				want := append([]float64(nil), got...)
				a := rng.NormFloat64()
				if special {
					a = specialValues[(n+off)%len(specialValues)]
				}
				axpy(a, x, got[:n])
				axpyScalar(a, x, want[:n])
				for i, w := range want {
					if g := got[i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
						t.Fatalf("n=%d offset=%d a=%g element %d: got %g (%#x), want %g (%#x)",
							n, off, a, i, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	}
}

// TestSpGemmMatchesDense and its TA twin pin the contract compute relies
// on: from any (−0-free) accumulator the CSR kernels reproduce the naive
// references on the densified operand bit for bit, under either axpy.
func TestSpGemmMatchesDense(t *testing.T) {
	forEachAxpy(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 60; trial++ {
			m, k, n := 1+rng.Intn(64), 1+rng.Intn(64), 1+rng.Intn(40)
			s := randSparse(rng, m, k, 0.3)
			b := randTile(rng, k, n)
			got := randTile(rng, m, n)
			want := got.Clone()
			SpGemmDense(got, s, b)
			refGemm(want, s.ToDense(), b)
			assertExact(t, got, want, fmt.Sprintf("spgemm trial %d (%dx%dx%d)", trial, m, k, n))
		}
	})
}

func TestSpGemmTAMatchesDense(t *testing.T) {
	forEachAxpy(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		for trial := 0; trial < 60; trial++ {
			k, m, n := 1+rng.Intn(64), 1+rng.Intn(64), 1+rng.Intn(40)
			s := randSparse(rng, k, m, 0.3)
			b := randTile(rng, k, n)
			got := randTile(rng, m, n)
			want := got.Clone()
			SpGemmDenseTA(got, s, b)
			refGemmTA(want, s.ToDense(), b)
			assertExact(t, got, want, fmt.Sprintf("spgemmTA trial %d (%dx%dx%d)", trial, m, k, n))
		}
	})
}

func TestMaskedGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		m, k, n := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a, b := randTile(rng, m, k), randTile(rng, k, n)
		mask := randSparse(rng, m, n, 0.4)
		got := MaskedGemm(mask, a, b)
		full := naiveGemm(a, b)
		// At masked positions the value must equal the full product; at
		// unmasked positions the result must be structurally zero.
		dense := got.ToDense()
		maskDense := mask.ToDense()
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if maskDense.At(i, j) != 0 {
					if !Close(dense.At(i, j), full.At(i, j), 1e-12) {
						t.Fatalf("masked value mismatch at (%d,%d)", i, j)
					}
				} else if dense.At(i, j) != 0 {
					t.Fatalf("unmasked position (%d,%d) is nonzero", i, j)
				}
			}
		}
		if got.NNZ() != mask.NNZ() {
			t.Fatalf("masked output pattern changed: %d vs %d", got.NNZ(), mask.NNZ())
		}
	}
}

func TestSpZip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	mask := randSparse(rng, 8, 8, 0.5)
	a := MaskedGemm(mask, randTile(rng, 8, 3), randTile(rng, 3, 8))
	b := MaskedGemm(mask, randTile(rng, 8, 3), randTile(rng, 3, 8))
	sum := SpZip(a, b, func(x, y float64) float64 { return x + y })
	want := a.ToDense()
	AddInto(want, b.ToDense())
	if !sum.ToDense().AlmostEqual(want, 1e-12) {
		t.Fatal("spzip sum mismatch")
	}
}

func TestSpZipPatternMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rng := rand.New(rand.NewSource(15))
	a := randSparse(rng, 5, 5, 0.5)
	b := randSparse(rng, 5, 5, 0.5)
	for a.NNZ() == b.NNZ() {
		b = randSparse(rng, 5, 5, 0.5)
	}
	SpZip(a, b, func(x, y float64) float64 { return x })
}

func TestCSRBytes(t *testing.T) {
	s := &CSRTile{Rows: 2, Cols: 2, RowPtr: []int{0, 1, 2}, ColIdx: []int{0, 1}, Val: []float64{1, 2}}
	if s.Bytes() != 2*12+3*4 {
		t.Fatalf("bytes: got %d", s.Bytes())
	}
}

func TestCSRTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randSparse(rng, 1+rng.Intn(12), 1+rng.Intn(12), 0.4)
		return s.Transpose().ToDense().Equal(Transpose(s.ToDense()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randSparse(rng, 9, 7, 0.3)
	if !s.Transpose().Transpose().ToDense().Equal(s.ToDense()) {
		t.Fatal("double transpose != original")
	}
}
