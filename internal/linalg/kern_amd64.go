//go:build amd64 && !purego

package linalg

import "slices"

// kernAVX2 is the 4×8 AVX2 micro-kernel of kern_amd64.s.
var kernAVX2 = microKern{name: "avx2-4x8", mr: 4, nr: 8}

// The one kernel selection of the process: AVX2 where the CPU has it and
// the OS saves YMM state, the scalar kernel otherwise.
func init() {
	if cpuHasAVX2() {
		microKernels = append(microKernels, &kernAVX2)
		defaultBlockConf.kern = &kernAVX2
		axpy = axpyAVX2
		compactRow = compactRowAVX2
		for m := range compactPerm {
			n := 0
			for lane := uint32(0); lane < 4; lane++ {
				if m>>lane&1 != 0 {
					compactPerm[m][2*n], compactPerm[m][2*n+1] = 2*lane, 2*lane+1
					n++
				}
			}
		}
	}
}

// cpuHasAVX2 reports CPUID AVX2 and POPCNT together with OS-enabled YMM
// state (OSXSAVE set and XCR0 bits 1 and 2).
func cpuHasAVX2() bool

// gemmKernelAVX2 adds the kb-term product of a packed 4-row A panel and
// a packed 8-column B panel into the 4×8 tile of C at c[0] with row
// stride ldc, kb ≥ 1. It checks no bounds: run does, before calling it.
//
//go:noescape
func gemmKernelAVX2(kb int, ap, bp, c []float64, ldc int)

func (k *microKern) run(kb int, ap, bp, c []float64, ldc int) {
	if k != &kernAVX2 {
		kernelScalar(kb, ap, bp, c, ldc)
		return
	}
	_, _, _ = ap[4*kb-1], bp[8*kb-1], c[3*ldc+7]
	gemmKernelAVX2(kb, ap, bp, c, ldc)
}

// axpyAVX2 is axpy (sparse.go) in AVX2: y[j] += a·x[j] for j < len(x).
// It checks no bounds: the CSR kernels hand it two rows of one length.
//
//go:noescape
func axpyAVX2(a float64, x, y []float64)

// compactRowAVX2 is compactRow (sparse.go): the AVX2 compaction over the
// row's whole 4-column groups, prefetching the next row as it goes, then
// the portable loop over the last len(row)%4 columns. The compaction
// stores four lanes per group whatever it keeps, so col and val first get
// room for a whole row.
func compactRowAVX2(col []int, val, row []float64, stride int) ([]int, []float64) {
	n := len(row) &^ 3
	col, val = slices.Grow(col, n), slices.Grow(val, n)
	k := compactAVX2(row[:n], col[len(col):len(col)+n], val[len(val):len(val)+n], 8*stride)
	col, val = col[:len(col)+k], val[:len(val)+k]
	for j, v := range row[n:] {
		if v != 0 {
			col = append(col, n+j)
			val = append(val, v)
		}
	}
	return col, val
}

// compactPerm[m] holds the VPERMD dword indices that move the 64-bit lanes
// set in the 4-bit mask m, in order, to the front of a YMM register (the
// lanes behind them are don't-cares). Package init fills it when it
// selects compactRowAVX2.
var compactPerm [16][8]uint32

// compactAVX2 stores the entries of row (len(row) a multiple of 4) with
// v != 0 at the front of val and their indices at the front of col, and
// returns how many it kept. It may write anywhere in col[:len(row)] and
// val[:len(row)] and checks no bounds: compactRowAVX2 sizes them. Each
// step also prefetches ahead bytes past the group it reads (never faults).
//
//go:noescape
func compactAVX2(row []float64, col []int, val []float64, ahead int) int
