package linalg

import "fmt"

// CSRTile is a sparse tile in compressed-sparse-row form. Cumulon uses
// sparse tiles for inputs such as ratings matrices, and for the "masked"
// operators where a dense product is only needed at the nonzero positions
// of a sparse matrix (the key primitive in sparse matrix factorization).
type CSRTile struct {
	Rows, Cols int
	RowPtr     []int     // len Rows+1
	ColIdx     []int     // len NNZ
	Val        []float64 // len NNZ
}

// NNZ returns the number of stored (structurally nonzero) entries.
func (s *CSRTile) NNZ() int { return len(s.Val) }

// DenseToCSR converts a dense tile to CSR, dropping exact zeros.
func DenseToCSR(t *Tile) *CSRTile {
	s := new(CSRTile)
	s.SetDense(t.Data, t.Rows, t.Cols, t.Cols)
	return s
}

// SetDense makes s the CSR form, exact zeros dropped, of the rows x cols
// region at the start of data, a row-major array with the given row stride.
// The slices of s are reused when they have the capacity.
func (s *CSRTile) SetDense(data []float64, rows, cols, stride int) {
	s.Rows, s.Cols = rows, cols
	if cap(s.RowPtr) <= rows {
		s.RowPtr = make([]int, 0, rows+1)
	}
	s.RowPtr, s.ColIdx, s.Val = append(s.RowPtr[:0], 0), s.ColIdx[:0], s.Val[:0]
	for i := 0; i < rows; i++ {
		s.ColIdx, s.Val = compactRow(s.ColIdx, s.Val, data[i*stride:i*stride+cols], stride)
		s.RowPtr = append(s.RowPtr, len(s.Val))
	}
}

// compactRow appends to col and val the column index and the value of
// every entry of row for which v != 0 holds — a NaN is kept, ±0 dropped —
// in ascending column order: SetDense's per-row scan. The next row the
// caller scans starts stride elements after row; a routine may prefetch
// it. Like axpy it is selected once: the portable loop here, replaced at
// package init by the AVX2 compaction where the build and the CPU have it
// (kern_amd64.go).
var compactRow = compactRowScalar

func compactRowScalar(col []int, val, row []float64, _ int) ([]int, []float64) {
	for j, v := range row {
		if v != 0 {
			col = append(col, j)
			val = append(val, v)
		}
	}
	return col, val
}

// ToDense expands the CSR tile back to dense form.
func (s *CSRTile) ToDense() *Tile {
	t := NewTile(s.Rows, s.Cols)
	s.ScatterInto(t.Data, s.Cols)
	return t
}

// ScatterInto writes the stored entries into the s.Rows x s.Cols region at
// the start of dst, a row-major array with the given row stride. Only
// stored positions are written: the region must already be zero.
func (s *CSRTile) ScatterInto(dst []float64, stride int) {
	for i := 0; i < s.Rows; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			dst[i*stride+s.ColIdx[p]] = s.Val[p]
		}
	}
}

// The two CSR×dense kernels honour block.go's numerical contract: every C
// element is one addition chain c0 + s(i,k0)·b(k0,j) + s(i,k1)·b(k1,j) + …
// over S's stored entries in ascending k, each term rounded as a product
// and then as a sum (a CSR row lists its columns in ascending order — every
// encoder in the tree writes them so — and SpGemmDenseTA walks S's rows,
// its k axis, outermost). What they leave out is exactly the dense chain's
// zero terms, and among finite terms a ±0 never changes a chain: x + ±0 = x
// for x ≠ 0, and +0 + ±0 = +0, which is all a chain that started −0-free
// can hold (in round-to-nearest a sum is −0 only when both operands are).
// From a zeroed or any −0-free accumulator they therefore agree bit for
// bit with refGemm / refGemmTA and with the blocked kernels on the
// densified operand, which is what lets compute multiply a sparse operand
// from its CSR form on either side of a product without an output byte
// moving. (The one divergence is a non-finite b(k,j) under an unstored
// s(i,k): 0·Inf makes the dense chain NaN.) Both run their inner loop
// through axpy.

// SpGemmDense computes C += S * B where S is sparse (m x k), B dense
// (k x n), C dense (m x n). Cost is proportional to NNZ(S) * n.
func SpGemmDense(c *Tile, s *CSRTile, b *Tile) {
	if s.Cols != b.Rows || c.Rows != s.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: spgemm shape mismatch %dx%d * %v -> %v", s.Rows, s.Cols, b, c))
	}
	n := b.Cols
	for i := 0; i < s.Rows; i++ {
		crow := c.Data[i*n : (i+1)*n]
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			axpy(s.Val[p], b.Data[s.ColIdx[p]*n:(s.ColIdx[p]+1)*n], crow)
		}
	}
}

// SpGemmDenseTA computes C += Sᵀ * B where S is sparse (k x m), B dense
// (k x n), C dense (m x n).
func SpGemmDenseTA(c *Tile, s *CSRTile, b *Tile) {
	if s.Rows != b.Rows || c.Rows != s.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: spgemmTA shape mismatch (%dx%d)ᵀ * %v -> %v", s.Rows, s.Cols, b, c))
	}
	n := b.Cols
	for i := 0; i < s.Rows; i++ {
		brow := b.Data[i*n : (i+1)*n]
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			axpy(s.Val[p], brow, c.Data[s.ColIdx[p]*n:(s.ColIdx[p]+1)*n])
		}
	}
}

// axpy is y[j] += a·x[j] for j < len(x) ≤ len(y), each element its own
// multiply-then-add: the inner loop of both CSR kernels. Like
// defaultBlockConf.kern it is selected once: the portable loop here,
// replaced at package init by the bit-identical AVX2 routine where the
// build and the CPU have it (kern_amd64.go).
var axpy = axpyScalar

func axpyScalar(a float64, x, y []float64) {
	y = y[:len(x)]
	for j, xv := range x {
		y[j] += a * xv
	}
}

// MaskedGemm computes, for each structurally nonzero position (i,j) of
// mask, out(i,j) = (A·B)(i,j), leaving all other positions zero. A is
// (m x k), B is (k x n), mask is (m x n). This is Cumulon's masked
// multiply operator: when only the sparse pattern of the output is needed
// (e.g. computing predictions at observed ratings), it avoids the full
// dense product, costing NNZ(mask) * k instead of m*n*k.
//
// When the dot products dominate the cost of transposing B once, the
// packed variant in block.go runs instead of the reference walk below:
// it turns the column-strided B access of every dot into two contiguous
// streams, with bit-identical results.
func MaskedGemm(mask *CSRTile, a, b *Tile) *CSRTile {
	if a.Cols != b.Rows || mask.Rows != a.Rows || mask.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: masked gemm shape mismatch %v * %v mask %dx%d", a, b, mask.Rows, mask.Cols))
	}
	if int64(mask.NNZ())*int64(a.Cols) >= maskedMinWork {
		return maskedGemmPacked(mask, a, b)
	}
	return refMaskedGemm(mask, a, b)
}

// refMaskedGemm is the naive reference masked multiply: a strided column
// walk of B per stored position. Retained as the small-input fast path
// and as the differential oracle for maskedGemmPacked.
func refMaskedGemm(mask *CSRTile, a, b *Tile) *CSRTile {
	k, n := a.Cols, b.Cols
	out := &CSRTile{
		Rows:   mask.Rows,
		Cols:   mask.Cols,
		RowPtr: append([]int(nil), mask.RowPtr...),
		ColIdx: append([]int(nil), mask.ColIdx...),
		Val:    make([]float64, mask.NNZ()),
	}
	for i := 0; i < mask.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		for p := mask.RowPtr[i]; p < mask.RowPtr[i+1]; p++ {
			j := mask.ColIdx[p]
			var s float64
			for q, av := range arow {
				s += av * b.Data[q*n+j]
			}
			out.Val[p] = s
		}
	}
	return out
}

// Transpose returns sᵀ in CSR form, in O(NNZ + Rows + Cols).
func (s *CSRTile) Transpose() *CSRTile {
	out := &CSRTile{
		Rows:   s.Cols,
		Cols:   s.Rows,
		RowPtr: make([]int, s.Cols+1),
		ColIdx: make([]int, s.NNZ()),
		Val:    make([]float64, s.NNZ()),
	}
	// Count entries per output row (= input column).
	for _, c := range s.ColIdx {
		out.RowPtr[c+1]++
	}
	for i := 0; i < s.Cols; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	next := append([]int(nil), out.RowPtr[:s.Cols]...)
	for i := 0; i < s.Rows; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			c := s.ColIdx[p]
			out.ColIdx[next[c]] = i
			out.Val[next[c]] = s.Val[p]
			next[c]++
		}
	}
	return out
}

// SpZip applies f over the structurally nonzero entries of s paired with
// the corresponding entries of the same-pattern sparse tile o. Both tiles
// must share an identical sparsity pattern (as produced by MaskedGemm on
// the same mask); this is verified.
func SpZip(s, o *CSRTile, f func(x, y float64) float64) *CSRTile {
	if s.Rows != o.Rows || s.Cols != o.Cols || s.NNZ() != o.NNZ() {
		panic("linalg: spzip pattern mismatch")
	}
	out := &CSRTile{
		Rows:   s.Rows,
		Cols:   s.Cols,
		RowPtr: append([]int(nil), s.RowPtr...),
		ColIdx: append([]int(nil), s.ColIdx...),
		Val:    make([]float64, s.NNZ()),
	}
	for p := range s.Val {
		if s.ColIdx[p] != o.ColIdx[p] {
			panic("linalg: spzip pattern mismatch")
		}
		out.Val[p] = f(s.Val[p], o.Val[p])
	}
	return out
}
