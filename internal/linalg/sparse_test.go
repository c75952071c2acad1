package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// forEachCSRRoutine runs body under the portable axpy and compactRow loops
// and, where package init selected them, under the AVX2 routines
// (forEachKernel's twin for the CSR kernels and the dense→CSR scan).
func forEachCSRRoutine(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	selAxpy, selCompact := axpy, compactRow
	defer func() { axpy, compactRow = selAxpy, selCompact }()
	axpy, compactRow = axpyScalar, compactRowScalar
	t.Run("scalar", body)
	if len(microKernels) == 1 {
		t.Log("AVX2 arm skipped: this build or CPU has only the scalar routines")
		return
	}
	axpy, compactRow = selAxpy, selCompact
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
	forEachCSRRoutine(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 60; trial++ {
			m, k, n := 1+rng.Intn(64), 1+rng.Intn(64), 1+rng.Intn(40)
			s := randSparse(rng, m, k, 0.3)
			b := randTile(rng, k, n)
			got := randTile(rng, m, n)
			want := got.clone()
			SpGemmDense(got, s, b)
			refGemm(want, s.ToDense(), b)
			assertExact(t, got, want, fmt.Sprintf("spgemm trial %d (%dx%dx%d)", trial, m, k, n))
		}
	})
}

func TestSpGemmTAMatchesDense(t *testing.T) {
	forEachCSRRoutine(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		for trial := 0; trial < 60; trial++ {
			k, m, n := 1+rng.Intn(64), 1+rng.Intn(64), 1+rng.Intn(40)
			s := randSparse(rng, k, m, 0.3)
			b := randTile(rng, k, n)
			got := randTile(rng, m, n)
			want := got.clone()
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
				if maskDense.at(i, j) != 0 {
					if !Close(dense.at(i, j), full.at(i, j), 1e-12) {
						t.Fatalf("masked value mismatch at (%d,%d)", i, j)
					}
				} else if dense.at(i, j) != 0 {
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
	if !sum.ToDense().almostEqual(want, 1e-12) {
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

func TestCSRTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randSparse(rng, 1+rng.Intn(12), 1+rng.Intn(12), 0.4)
		return s.Transpose().ToDense().Equal(transpose(s.ToDense()))
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

// refSetDense is SetDense with the portable row scan, whatever package init
// selected: the oracle of the compaction tests.
func refSetDense(data []float64, rows, cols, stride int) *CSRTile {
	s := &CSRTile{Rows: rows, Cols: cols, RowPtr: []int{0}}
	for i := 0; i < rows; i++ {
		s.ColIdx, s.Val = compactRowScalar(s.ColIdx, s.Val, data[i*stride:i*stride+cols], stride)
		s.RowPtr = append(s.RowPtr, len(s.Val))
	}
	return s
}

// sameCSR reports whether a and b hold the same shape, row pointers,
// column indices and value bits (NaN payloads included).
func sameCSR(a, b *CSRTile) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || !slices.Equal(a.RowPtr, b.RowPtr) ||
		!slices.Equal(a.ColIdx, b.ColIdx) || len(a.Val) != len(b.Val) {
		return false
	}
	for p, v := range a.Val {
		if math.Float64bits(v) != math.Float64bits(b.Val[p]) {
			return false
		}
	}
	return true
}

// TestSetDenseMatchesScalar holds the selected dense→CSR scan to the
// portable loop bit for bit: every 4-lane mask, widths that leave every
// tail length 0–3, row strides beyond the width, NaNs with payloads, −0
// (dropped, like +0), ±Inf and subnormals (kept), into recycled buffers —
// and compactRow writes nothing past the capacity it is given.
func TestSetDenseMatchesScalar(t *testing.T) {
	nonzero := []float64{
		1, -1, math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001),
		math.Float64frombits(0xfff8_dead_beef_cafe), math.SmallestNonzeroFloat64, -0x1p-1040, math.MaxFloat64, 3,
	}
	zero := []float64{0, math.Copysign(0, -1)}
	forEachCSRRoutine(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		// Every 4-bit lane mask, group g of a row having mask g.
		masks := make([]float64, 3*64)
		for i := range masks {
			if g := i % 64 / 4; g>>(i%4)&1 != 0 {
				masks[i] = nonzero[rng.Intn(len(nonzero))]
			} else {
				masks[i] = zero[rng.Intn(2)]
			}
		}
		check := func(name string, s *CSRTile, data []float64, rows, cols, stride int) {
			t.Helper()
			s.SetDense(data, rows, cols, stride)
			if want := refSetDense(data, rows, cols, stride); !sameCSR(s, want) {
				t.Fatalf("%s: %dx%d stride %d: got %+v, want %+v", name, rows, cols, stride, s, want)
			}
		}
		var reused CSRTile
		check("masks", &reused, masks, 3, 64, 64)
		check("masks shifted by one column", &reused, masks[1:], 2, 63, 64)
		for _, cols := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256} {
			for _, extra := range []int{0, 1, 3, 8} {
				for _, density := range []float64{0, 0.05, 0.5, 1} {
					rows, stride := 1+rng.Intn(5), cols+extra
					data := make([]float64, rows*stride)
					for i := range data {
						switch {
						case rng.Float64() < density:
							data[i] = nonzero[rng.Intn(len(nonzero))]
							if rng.Intn(2) == 0 {
								data[i] = rng.NormFloat64()
							}
						default:
							data[i] = zero[rng.Intn(2)]
						}
					}
					check("fresh", new(CSRTile), data, rows, cols, stride)
					check("recycled", &reused, data, rows, cols, stride)
				}
			}
		}
		// compactRow appends within the capacity it is given, even when that
		// is exactly a row beyond the length, and leaves the prefix alone.
		const sentinel = -12345
		for _, w := range []int{1, 3, 4, 5, 8, 255, 256} {
			row := make([]float64, w)
			for j := range row {
				row[j] = nonzero[rng.Intn(len(nonzero))]
				if rng.Intn(3) == 0 {
					row[j] = zero[rng.Intn(2)]
				}
			}
			for _, start := range []int{0, 1, 3} {
				colBuf, valBuf := make([]int, start+w+8), make([]float64, start+w+8)
				for i := range colBuf {
					colBuf[i], valBuf[i] = sentinel, sentinel
				}
				col, val := compactRow(colBuf[:start:start+w], valBuf[:start:start+w], row, w)
				wantCol, wantVal := compactRowScalar(nil, nil, row, w)
				if !slices.Equal(col[start:], wantCol) || len(val) != len(col) || cap(col) != start+w || cap(val) != start+w {
					t.Fatalf("width %d after %d entries: columns %v, want %v (or the buffer was not reused)", w, start, col[start:], wantCol)
				}
				for p, v := range wantVal {
					if math.Float64bits(val[start+p]) != math.Float64bits(v) {
						t.Fatalf("width %d: value %d is %#x, want %#x", w, p, math.Float64bits(val[start+p]), math.Float64bits(v))
					}
				}
				for i := range colBuf {
					if (i < start || i >= start+w) && (colBuf[i] != sentinel || valBuf[i] != sentinel) {
						t.Fatalf("width %d after %d entries: element %d outside the row's room was written", w, start, i)
					}
				}
			}
		}
	})
}
