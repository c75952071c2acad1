//go:build amd64 && !purego

package linalg

// kernAVX2 is the 4×8 AVX2 micro-kernel of kern_amd64.s.
var kernAVX2 = microKern{name: "avx2-4x8", mr: 4, nr: 8}

// The one kernel selection of the process: AVX2 where the CPU has it and
// the OS saves YMM state, the scalar kernel otherwise.
func init() {
	if cpuHasAVX2() {
		microKernels = append(microKernels, &kernAVX2)
		defaultBlockConf.kern = &kernAVX2
		axpy = axpyAVX2
	}
}

// cpuHasAVX2 reports CPUID AVX2 together with OS-enabled YMM state
// (OSXSAVE set and XCR0 bits 1 and 2).
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
