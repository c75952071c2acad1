package linalg

import "sync"

// Cache-blocked GEMM driver.
//
// The dense multiply kernels share one BLIS-style blocked driver: operand
// panels are packed into contiguous scratch buffers and the product is
// computed by an MR×NR register-tiled micro-kernel. Blocking bounds the
// working set (a packed A block targets L2, the micro-panel of B streams
// through L1) and packing makes every inner-loop access unit-stride
// regardless of the logical layout — including the transposed access paths
// GemmTA/GemmTB, which differ only in how their panels are gathered.
//
// Numerical contract: the micro-kernel loads the C sub-block into its
// register tile *first* and then accumulates the k terms in ascending
// order, one kc-block after another. Each element of C therefore sees
// exactly the sequence c0 + a(i,0)b(0,j) + a(i,1)b(1,j) + ... that the
// naive references produce — refGemm, refGemmTA and refGemmTB all fold
// their terms into the loaded C element in the same ascending-k order —
// so the blocked kernels agree with all three references bit-for-bit on
// finite data, from any accumulator (up to the sign of zero: the
// references skip a==0 terms, the blocked kernel adds their +0
// products). The same sequence per element also holds on the parallel
// driver (parallel.go) at every worker count. The differential tests and
// fuzz targets in blocked_test.go / parallel_test.go / fuzz_test.go hold
// the kernels to that contract.
//
// The CSR×dense kernels (sparse.go) honour the same chain over a sparse
// operand's stored entries; the terms they never form are exact zeros,
// which cannot change a −0-free sum of finite terms. So a product may run
// there or densify and come here, and the result is the same bits (the
// argument is at SpGemmDense; sparse_test.go holds it to refGemm/refGemmTA).

// blockConf carries the cache-blocking factors and the micro-kernel they
// feed. Production code uses defaultBlockConf; tests shrink the factors to
// force multi-block loops and fringe panels at tiny, fast-to-verify sizes,
// and swap the kernel to hold every micro-kernel to the same contract.
type blockConf struct {
	mc   int        // rows of a packed A block (multiple of kern.mr)
	kc   int        // shared inner-dimension block depth
	nc   int        // columns of a packed B block (multiple of kern.nr)
	kern *microKern // register-tile kernel; fixes the packed panel widths
}

// defaultBlockConf targets common x86-64 cache sizes: the packed A block
// (mc×kc = 64×256 float64s = 128 KiB) fits in L2 alongside the B
// micro-panel (kc×nr ≤ 16 KiB) it is multiplied against, and the packed B
// block (kc×nc = 1 MiB) lives in L3 and is reused across all A blocks.
// Its kern field is the process's one kernel selection: the portable
// scalar kernel here, replaced once at package init by the AVX2 kernel
// where the build and the CPU have it (kern_amd64.go).
var defaultBlockConf = blockConf{mc: 64, kc: 256, nc: 512, kern: &kernScalar}

// microKern is a register-tiled micro-kernel: run adds the product of one
// packed mr-row A panel and one packed nr-column B panel, kb terms deep,
// into the mr×nr tile of C that starts at c[0] with row stride ldc. The
// tile shape belongs to the kernel, so the packers and both drivers read
// mr and nr from here. Exactly two exist:
//
//   - kernScalar, 4×2 in plain Go: eight accumulators plus six operand
//     temporaries stay inside the sixteen SSE registers the gc compiler
//     has on amd64 (a scalar 4×4 tile amortizes loads better on paper but
//     its sixteen accumulators spill, ~35% slower). It is the only kernel
//     on non-amd64 builds, under -tags purego and on pre-AVX2 hosts.
//   - kernAVX2, 4×8 in assembly (kern_amd64.s): eight YMM accumulators,
//     separate multiply and add so each term rounds exactly as here.
//
// Both honour the numerical contract above, so they are bit-identical to
// each other and which one runs is invisible outside wall-clock time.
type microKern struct {
	name   string
	mr, nr int
}

var kernScalar = microKern{name: "scalar-4x2", mr: 4, nr: 2}

// microKernels lists the kernels this process can run, for the tests
// that hold each of them to the contract; package init appends kernAVX2
// where it is usable.
var microKernels = []*microKern{&kernScalar}

// maxTile bounds mr·nr over all micro-kernels: the size of the padded
// stack tile fringe sub-blocks are computed in.
const maxTile = 4 * 8

// blockedMinFlops is the dispatch cutoff: below ~64³ multiply-adds the
// packing overhead (m·k + k·n extra copies) is not repaid and the naive
// loops win, so the public kernels fall back to refGemm*. Each dimension
// must also clear a floor so the packed panels are mostly useful.
const blockedMinFlops = 1 << 18

// useBlocked reports whether the blocked driver should handle an
// (m×k)·(k×n) product. The floors are literals, not multiples of the
// active kernel's tile: the references skip a==0 terms while the blocked
// path adds their +0 products, so the routing of a shape must not depend
// on which kernel the host selected.
func useBlocked(m, k, n int) bool {
	return m >= 16 && n >= 8 && k >= 16 &&
		int64(m)*int64(k)*int64(n) >= blockedMinFlops
}

// gemmScratch holds one worker's packing buffers. The buffers are
// recycled through a sync.Pool so steady-state GEMM calls allocate
// nothing; tile sizes vary, so the slices grow monotonically to the
// largest block seen by that scratch.
type gemmScratch struct {
	a []float64 // packed A block: mc × kc
	b []float64 // packed B block: kc × nc
}

var gemmPool = sync.Pool{New: func() any { return new(gemmScratch) }}

// ensure sizes the packing buffers for exactly the requested panel
// lengths. The slices are re-sliced to the request — never to capacity —
// so a scratch recycled from a larger product cannot hand the packers or
// the micro-kernel stale data beyond the panels they are about to fill:
// an out-of-bounds window panics instead of silently reading garbage.
// (The packers still zero the mr/nr fringe padding explicitly; ensure
// only bounds the visible buffer.)
func (s *gemmScratch) ensure(an, bn int) {
	if cap(s.a) < an {
		s.a = make([]float64, an)
	}
	s.a = s.a[:an]
	if cap(s.b) < bn {
		s.b = make([]float64, bn)
	}
	s.b = s.b[:bn]
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// gemmBlocked computes C += op(A)·op(B) through the blocked driver, where
// op is transposition when ta/tb is set: A is (m×k) or, with ta, (k×m);
// B is (k×n) or, with tb, (n×k). Shapes are the caller's responsibility
// (the public kernels validate before dispatching).
//
// epi, when non-nil, is applied to each finished output panel right after
// the panel's pc loop lands its final k-block — the panel is fully
// accumulated and still cache-resident, so a fused element-wise epilogue
// costs one warm pass instead of a second cold sweep over the whole tile.
// Every C element is visited by epi exactly once.
//
// Products big enough to repay goroutine fan-out run on the parallel
// driver (parallel.go), which partitions the jc/ic macro-panel grid
// across workers, when the compute budget has tokens idle. Each C element
// sees the identical ascending-k accumulation sequence either way, so the
// parallel result is bit-identical to the sequential one at every worker
// count.
func gemmBlocked(cf blockConf, c, a, b *Tile, ta, tb bool, epi EpilogueFn) {
	m, n := c.Rows, c.Cols
	k := a.Cols
	if ta {
		k = a.Rows
	}
	if m == 0 || n == 0 || k == 0 {
		if epi != nil {
			epi(0, 0, m, n)
		}
		return
	}
	if w := gemmWorkers(cf, m, k, n); w > 1 {
		// The caller holds its token; borrow the ones idle right now.
		if extra := tryAcquire(w - 1); extra > 0 {
			gemmBlockedParallel(cf, c, a, b, ta, tb, epi, 1+extra)
			releaseTokens(extra)
			return
		}
	}
	gemmBlockedSeq(cf, c, a, b, ta, tb, epi)
}

// gemmBlockedSeq is the single-goroutine blocked driver: the jc→pc→ic
// loop nest with per-call pooled scratch. It is the reference the
// parallel driver is held bit-identical to, and the path the public
// kernels take when parallelism is off or the product is too small to
// repay fan-out.
func gemmBlockedSeq(cf blockConf, c, a, b *Tile, ta, tb bool, epi EpilogueFn) {
	m, n := c.Rows, c.Cols
	k := a.Cols
	if ta {
		k = a.Rows
	}
	if mathHook != nil {
		mathHook(1)
		defer mathHook(-1)
	}
	sc := gemmPool.Get().(*gemmScratch)
	defer gemmPool.Put(sc)
	sc.ensure(cf.mc*cf.kc, cf.kc*cf.nc)

	for jc := 0; jc < n; jc += cf.nc {
		nb := minInt(cf.nc, n-jc)
		// k blocks ascend inside the jc loop, so every C element still
		// accumulates its terms in ascending-k order (see contract above).
		for pc := 0; pc < k; pc += cf.kc {
			kb := minInt(cf.kc, k-pc)
			packB(sc.b, cf.kern.nr, b, tb, pc, kb, jc, nb)
			for ic := 0; ic < m; ic += cf.mc {
				mb := minInt(cf.mc, m-ic)
				packA(sc.a, cf.kern.mr, a, ta, ic, mb, pc, kb)
				macroKernel(cf.kern, kb, sc.a, sc.b, c, ic, mb, jc, nb)
			}
		}
		if epi != nil {
			epi(0, jc, m, nb)
		}
	}
}

// macroKernel adds the product of a packed mb×kb A block and a packed
// kb×nb B block into the block of C at (ic, jc), one register tile at a
// time. A full mr×nr tile runs the micro-kernel on C in place; a fringe
// tile detours through a zero-padded stack tile and the same kernel (the
// packers zero-pad the panels, so the padding lanes only ever hold values
// that are never copied back). Either way each element is loaded first
// and then takes its kb terms in ascending order — the contract above.
func macroKernel(kern *microKern, kb int, pa, pb []float64, c *Tile, ic, mb, jc, nb int) {
	mr, nr, ld := kern.mr, kern.nr, c.Cols
	for jr := 0; jr < nb; jr += nr {
		bp := pb[jr*kb : (jr+nr)*kb]
		cols := minInt(nr, nb-jr)
		for ir := 0; ir < mb; ir += mr {
			ap := pa[ir*kb : (ir+mr)*kb]
			rows := minInt(mr, mb-ir)
			off := (ic+ir)*ld + jc + jr
			if rows == mr && cols == nr {
				kern.run(kb, ap, bp, c.Data[off:], ld)
				continue
			}
			var acc [maxTile]float64
			for ii := 0; ii < rows; ii++ {
				copy(acc[ii*nr:ii*nr+cols], c.Data[off+ii*ld:])
			}
			kern.run(kb, ap, bp, acc[:mr*nr], nr)
			for ii := 0; ii < rows; ii++ {
				copy(c.Data[off+ii*ld:off+ii*ld+cols], acc[ii*nr:])
			}
		}
	}
}

// packA gathers the (ic..ic+mb)×(pc..pc+kb) block of A (or Aᵀ when ta)
// into mr-row panels: panel q holds element (ic+q·mr+ii, pc+p) at offset
// q·kb·mr + p·mr + ii, with rows past mb zero-padded so the micro-kernel
// never branches on the fringe.
func packA(dst []float64, mr int, a *Tile, ta bool, ic, mb, pc, kb int) {
	packPanels(dst, mr, a, !ta, ic, mb, pc, kb)
}

// packB gathers the (pc..pc+kb)×(jc..jc+nb) block of B (or Bᵀ when tb)
// into nr-column panels: panel q holds element (pc+p, jc+q·nr+jj) at
// offset q·kb·nr + p·nr + jj, columns past nb zero-padded.
func packB(dst []float64, nr int, b *Tile, tb bool, pc, kb, jc, nb int) {
	packPanels(dst, nr, b, tb, jc, nb, pc, kb)
}

// packPanels is both packers: it cuts nl lanes of t starting at l0 into
// w-lane panels, each holding terms p0..p0+kb at offset p·w + lane, the
// last panel's missing lanes zero. A lane is a row of t when lanesAreRows
// (A, or B stored transposed: each lane is one contiguous run, scattered
// at stride w) and a column otherwise (B, or A stored transposed: each
// term is one contiguous w-wide run).
func packPanels(dst []float64, w int, t *Tile, lanesAreRows bool, l0, nl, p0, kb int) {
	ld := t.Cols
	for lr := 0; lr < nl; lr += w {
		lanes := minInt(w, nl-lr)
		panel := dst[lr*kb : (lr+w)*kb]
		if lanes < w {
			clear(panel)
		}
		if lanesAreRows {
			for ll := 0; ll < lanes; ll++ {
				src := t.Data[(l0+lr+ll)*ld+p0:][:kb]
				for p, v := range src {
					panel[p*w+ll] = v
				}
			}
			continue
		}
		for p := 0; p < kb; p++ {
			src := t.Data[(p0+p)*ld+l0+lr:][:lanes]
			d := panel[p*w:][:lanes]
			for i := range d {
				d[i] = src[i]
			}
		}
	}
}

// kernelScalar is kernScalar's run: the 4×2 tile in eight scalar
// accumulators with the k loop unrolled four-way (constant indices into a
// re-sliced window, so every bounds check is hoisted). Each accumulator
// adds its terms in ascending-k order — the unroll reads a[0..15] in
// panel order — preserving the bit-exactness contract.
func kernelScalar(kb int, ap, bp, c []float64, ldc int) {
	const mr, nr = 4, 2
	r0 := c[:nr]
	r1 := c[ldc : ldc+nr]
	r2 := c[2*ldc : 2*ldc+nr]
	r3 := c[3*ldc : 3*ldc+nr]
	c00, c01 := r0[0], r0[1]
	c10, c11 := r1[0], r1[1]
	c20, c21 := r2[0], r2[1]
	c30, c31 := r3[0], r3[1]
	for ; kb >= 4; kb -= 4 {
		a := ap[: 4*mr : 4*mr]
		b := bp[: 4*nr : 4*nr]
		c00 += a[0] * b[0]
		c01 += a[0] * b[1]
		c10 += a[1] * b[0]
		c11 += a[1] * b[1]
		c20 += a[2] * b[0]
		c21 += a[2] * b[1]
		c30 += a[3] * b[0]
		c31 += a[3] * b[1]

		c00 += a[4] * b[2]
		c01 += a[4] * b[3]
		c10 += a[5] * b[2]
		c11 += a[5] * b[3]
		c20 += a[6] * b[2]
		c21 += a[6] * b[3]
		c30 += a[7] * b[2]
		c31 += a[7] * b[3]

		c00 += a[8] * b[4]
		c01 += a[8] * b[5]
		c10 += a[9] * b[4]
		c11 += a[9] * b[5]
		c20 += a[10] * b[4]
		c21 += a[10] * b[5]
		c30 += a[11] * b[4]
		c31 += a[11] * b[5]

		c00 += a[12] * b[6]
		c01 += a[12] * b[7]
		c10 += a[13] * b[6]
		c11 += a[13] * b[7]
		c20 += a[14] * b[6]
		c21 += a[14] * b[7]
		c30 += a[15] * b[6]
		c31 += a[15] * b[7]
		ap = ap[4*mr:]
		bp = bp[4*nr:]
	}
	for ; kb > 0; kb-- {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1 := bp[0], bp[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		ap = ap[mr:]
		bp = bp[nr:]
	}
	r0[0], r0[1] = c00, c01
	r1[0], r1[1] = c10, c11
	r2[0], r2[1] = c20, c21
	r3[0], r3[1] = c30, c31
}

// maskedMinWork is the dispatch cutoff for the packed masked multiply:
// below it the k·n cost of transposing B dominates the nnz·k dot
// products and the reference strided walk is cheaper.
const maskedMinWork = 1 << 16

// maskedGemmPacked computes the masked product through a packed Bᵀ: B is
// transposed once into a column-major scratch so every dot product runs
// over two contiguous vectors instead of striding column j through B. The
// per-element accumulation order (ascending k from zero) is identical to
// refMaskedGemm, so results are bit-equal.
func maskedGemmPacked(mask *CSRTile, a, b *Tile) *CSRTile {
	k, n := a.Cols, b.Cols
	sc := gemmPool.Get().(*gemmScratch)
	defer gemmPool.Put(sc)
	sc.ensure(0, k*n)
	bt := sc.b[: k*n : k*n]
	for p := 0; p < k; p++ {
		src := b.Data[p*n : (p+1)*n]
		for j, v := range src {
			bt[j*k+p] = v
		}
	}
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
			bcol := bt[mask.ColIdx[p]*k : (mask.ColIdx[p]+1)*k]
			var s float64
			for q, av := range arow {
				s += av * bcol[q]
			}
			out.Val[p] = s
		}
	}
	return out
}
