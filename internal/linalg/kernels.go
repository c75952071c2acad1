package linalg

import "fmt"

// Gemm computes C += A * B for dense tiles, where A is (m x k), B is
// (k x n) and C is (m x n). It panics on shape mismatch: shape errors at
// this level are always planner bugs, never data-dependent conditions.
//
// Large products route through the cache-blocked, register-tiled driver
// in block.go; below the cutoff the packing overhead is not repaid and
// the naive reference loop refGemm runs instead. Both paths accumulate
// each C element's terms in ascending-k order, so they agree bit-for-bit
// on finite data (see the contract in block.go).
func Gemm(c, a, b *Tile) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: gemm shape mismatch %v * %v -> %v", a, b, c))
	}
	if useBlocked(a.Rows, a.Cols, b.Cols) {
		gemmBlocked(defaultBlockConf, c, a, b, false, false, nil)
		return
	}
	refGemm(c, a, b)
}

// refGemm is the naive reference kernel behind Gemm: ikj loop order with
// a hoisted A element, so the inner loop is a scaled vector add over
// contiguous rows of B and C. It is both the small-tile fast path and
// the oracle the blocked driver is differentially tested against.
func refGemm(c, a, b *Tile) {
	m, k, n := a.Rows, a.Cols, b.Cols
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// GemmTA computes C += Aᵀ * B where A is (k x m), B is (k x n), C is (m x n).
// Transposed-input kernels avoid materializing explicit transposes for the
// common Aᵀ·B patterns in statistical workloads (e.g. GNMF update rules).
// Large products route through the blocked driver, whose A-panel packing
// absorbs the transposed layout; small ones fall back to refGemmTA.
func GemmTA(c, a, b *Tile) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: gemmTA shape mismatch %vᵀ * %v -> %v", a, b, c))
	}
	if useBlocked(a.Cols, a.Rows, b.Cols) {
		gemmBlocked(defaultBlockConf, c, a, b, true, false, nil)
		return
	}
	refGemmTA(c, a, b)
}

// refGemmTA is the naive reference kernel behind GemmTA: p-outer loops
// whose inner loop is a scaled vector add over contiguous rows of B and C.
func refGemmTA(c, a, b *Tile) {
	k, m, n := a.Rows, a.Cols, b.Cols
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			crow := c.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// GemmTB computes C += A * Bᵀ where A is (m x k), B is (n x k), C is (m x n).
// Large products route through the blocked driver: its B-panel packing
// reads Bᵀ's contiguous rows, replacing refGemmTB's per-output-column row
// dots (which re-stream a full row of B for every output element) with
// the same streaming micro-kernel the other kernels use.
func GemmTB(c, a, b *Tile) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: gemmTB shape mismatch %v * %vᵀ -> %v", a, b, c))
	}
	if useBlocked(a.Rows, a.Cols, b.Rows) {
		gemmBlocked(defaultBlockConf, c, a, b, false, true, nil)
		return
	}
	refGemmTB(c, a, b)
}

// refGemmTB is the naive reference kernel behind GemmTB: a row dot per
// output element. Like refGemm and refGemmTA it loads the C element
// first and folds the k terms into it in ascending order — the running
// sum starts from crow[j], not from zero — so blocked and reference
// agree bit-for-bit even against a nonzero accumulator. (It previously
// summed each dot separately before adding it to C, which made the TB
// branch exact only from zero C and association-bounded otherwise.)
func refGemmTB(c, a, b *Tile) {
	m, k, n := a.Rows, a.Cols, b.Rows
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			s := crow[j]
			for p, av := range arow {
				s += av * brow[p]
			}
			crow[j] = s
		}
	}
}

// EpilogueFn transforms a finished rows×cols panel of C at (i0, j0). The
// blocked driver invokes it once per output panel, immediately after the
// panel's final k-block lands — while the panel is still cache-resident —
// so a fused element-wise epilogue costs one warm pass instead of a
// second cold sweep over the whole tile. Every element of C is visited
// exactly once across the invocations.
type EpilogueFn func(i0, j0, rows, cols int)

// GemmHooked computes C += op(A)·op(B), where ta/tb select transposition
// exactly as in Gemm / GemmTA / GemmTB (ta && tb is unsupported — callers
// transpose one operand first, as mulTile does), and then applies epi to
// every element of C exactly once. On the blocked path the epilogue is
// fused into the write-back per output panel; on the reference fallback it
// runs once over the whole tile after the product. A nil epi makes
// GemmHooked identical to the plain kernels.
//
// The epilogue sees each C element only after its accumulation is
// complete, so results are bit-identical to applying epi as a separate
// post-pass over the finished product.
func GemmHooked(c, a, b *Tile, ta, tb bool, epi EpilogueFn) {
	switch {
	case ta && tb:
		panic("linalg: gemmHooked does not support ta && tb")
	case ta:
		if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
			panic(fmt.Sprintf("linalg: gemmTA shape mismatch %vᵀ * %v -> %v", a, b, c))
		}
		if useBlocked(a.Cols, a.Rows, b.Cols) {
			gemmBlocked(defaultBlockConf, c, a, b, true, false, epi)
			return
		}
		refGemmTA(c, a, b)
	case tb:
		if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
			panic(fmt.Sprintf("linalg: gemmTB shape mismatch %v * %vᵀ -> %v", a, b, c))
		}
		if useBlocked(a.Rows, a.Cols, b.Rows) {
			gemmBlocked(defaultBlockConf, c, a, b, false, true, epi)
			return
		}
		refGemmTB(c, a, b)
	default:
		if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
			panic(fmt.Sprintf("linalg: gemm shape mismatch %v * %v -> %v", a, b, c))
		}
		if useBlocked(a.Rows, a.Cols, b.Cols) {
			gemmBlocked(defaultBlockConf, c, a, b, false, false, epi)
			return
		}
		refGemm(c, a, b)
	}
	if epi != nil {
		epi(0, 0, c.Rows, c.Cols)
	}
}

// TransposeInto overwrites every element of out, a t.Cols x t.Rows tile,
// with tᵀ.
func TransposeInto(out, t *Tile) {
	if out.Rows != t.Cols || out.Cols != t.Rows {
		panic(fmt.Sprintf("linalg: transpose shape mismatch %v -> %v", t, out))
	}
	for i := 0; i < t.Rows; i++ {
		row := t.Data[i*t.Cols : (i+1)*t.Cols]
		for j, v := range row {
			out.Data[j*t.Rows+i] = v
		}
	}
}

// AddInto computes dst += src element-wise.
func AddInto(dst, src *Tile) {
	mustSameShape("add", dst, src)
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}

// Zip applies f element-wise over a and b, writing into a fresh tile.
func Zip(a, b *Tile, f func(x, y float64) float64) *Tile {
	mustSameShape("zip", a, b)
	out := NewTile(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = f(a.Data[i], b.Data[i])
	}
	return out
}

// Map applies f element-wise over t into a fresh tile.
func Map(t *Tile, f func(x float64) float64) *Tile {
	out := NewTile(t.Rows, t.Cols)
	for i, v := range t.Data {
		out.Data[i] = f(v)
	}
	return out
}

// Scale returns s * t in a fresh tile.
func Scale(t *Tile, s float64) *Tile {
	return Map(t, func(x float64) float64 { return s * x })
}

// GemmFlops returns the floating-point operation count of a GEMM with the
// given dimensions (2mnk: one multiply and one add per inner step). The
// cost models in package model consume this.
func GemmFlops(m, k, n int) int64 {
	return 2 * int64(m) * int64(k) * int64(n)
}

func mustSameShape(op string, a, b *Tile) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: %s shape mismatch %v vs %v", op, a, b))
	}
}
