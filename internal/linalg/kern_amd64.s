//go:build amd64 && !purego

#include "textflag.h"

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7 // leaf 7 must exist
	JB   done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<23 | 1<<27 | 1<<28), CX // POPCNT, OSXSAVE and AVX
	CMPL CX, $(1<<23 | 1<<27 | 1<<28)
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX // leaf 7 EBX bit 5: AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET

// func gemmKernelAVX2(kb int, ap, bp, c []float64, ldc int)
//
// C(4×8) += Ap·Bp over kb terms: Y0..Y7 hold the tile (two YMM per row),
// loaded from C before the first term. Each term loads the packed B row
// into Y8/Y9, broadcasts the four packed A values in turn and folds
// a·b into the row's accumulators with a separate VMULPD and VADDPD.
//
// No FMA, ever: a fused multiply-add rounds once where the references and
// the scalar kernel round twice (product, then sum), and every golden,
// digest and resume oracle in the tree pins those two roundings. The k
// loop is likewise not split across accumulators — each element is one
// ascending-k addition chain (block.go's numerical contract).
TEXT ·gemmKernelAVX2(SB), NOSPLIT, $0-88
	MOVQ kb+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), DI
	MOVQ c_base+56(FP), R8
	MOVQ ldc+80(FP), BX
	SHLQ $3, BX // row stride in bytes
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11

	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD (R9), Y2
	VMOVUPD 32(R9), Y3
	VMOVUPD (R10), Y4
	VMOVUPD 32(R10), Y5
	VMOVUPD (R11), Y6
	VMOVUPD 32(R11), Y7

	// Each hot loop head sits at 0 mod 64 whatever is linked before it
	// (CI checks the built perf binary): its speed does not depend on layout.
	PCALIGN $64
loop:
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (SI), Y10
	VBROADCASTSD 8(SI), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VADDPD       Y12, Y0, Y0
	VADDPD       Y13, Y1, Y1
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD 16(SI), Y10
	VBROADCASTSD 24(SI), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VADDPD       Y12, Y4, Y4
	VADDPD       Y13, Y5, Y5
	VADDPD       Y14, Y6, Y6
	VADDPD       Y15, Y7, Y7
	ADDQ         $32, SI
	ADDQ         $64, DI
	DECQ         CX
	JNZ          loop

	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, 32(R9)
	VMOVUPD Y4, (R10)
	VMOVUPD Y5, 32(R10)
	VMOVUPD Y6, (R11)
	VMOVUPD Y7, 32(R11)
	VZEROUPPER
	RET

// func axpyAVX2(a float64, x, y []float64)
//
// y[j] += a·x[j] for j < len(x), four elements per step and the last
// len(x)%4 one at a time: a broadcast once, then a separate multiply and
// add per step — each element rounds its product and its sum exactly as
// the Go loop does (no FMA, and nothing to reassociate: an element is
// its own chain).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	MOVQ         CX, DX
	ANDQ         $3, DX
	SHRQ         $2, CX
	JZ           axpytail

	PCALIGN $64
axpyloop:
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     axpyloop

axpytail:
	TESTQ DX, DX
	JZ    axpydone
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   DX
	JMP    axpytail

axpydone:
	VZEROUPPER
	RET

// Lane indices 0..3 as 64-bit integers: the columns of the first group.
DATA compactLanes<>+0(SB)/8, $0
DATA compactLanes<>+8(SB)/8, $1
DATA compactLanes<>+16(SB)/8, $2
DATA compactLanes<>+24(SB)/8, $3
GLOBL compactLanes<>(SB), RODATA|NOPTR, $32

// func compactAVX2(row []float64, col []int, val []float64, ahead int) int
//
// Branch-free compaction, four columns per step: VCMPPD with NEQ_UQ marks
// the lanes where v != 0 holds as Go evaluates it (unordered counts as not
// equal, so a NaN is kept; −0 equals +0, so both zeros are dropped),
// VMOVMSKPD turns the marks into a 4-bit mask, and compactPerm[mask]
// drives one VPERMD over the values and one over the column indices,
// which are stored, all four lanes, at the count kept so far. The count
// then advances by POPCNT(mask): a lane that is not kept is overwritten
// by the next store, or lies past the count the caller keeps. Each step
// first prefetches the same columns of the next row (ahead bytes on):
// ingest scans a tile's rows a matrix row apart, a stride the hardware
// prefetchers do not follow, and the scan is bound by memory.
TEXT ·compactAVX2(SB), NOSPLIT, $0-88
	MOVQ    row_base+0(FP), SI
	MOVQ    row_len+8(FP), CX
	MOVQ    col_base+24(FP), DI
	MOVQ    val_base+48(FP), R8
	LEAQ    ·compactPerm(SB), R9
	MOVQ    ahead+72(FP), R10
	XORQ    DX, DX                 // entries kept
	VXORPD  Y0, Y0, Y0
	VMOVDQU compactLanes<>(SB), Y6 // this group's column indices
	MOVQ    $4, AX
	MOVQ    AX, X7
	VPBROADCASTQ X7, Y7
	SHRQ    $2, CX
	JZ      compactdone

	PCALIGN $64
compactloop:
	PREFETCHT0 (SI)(R10*1)
	VMOVUPD   (SI), Y1
	VCMPPD    $4, Y0, Y1, Y2 // NEQ_UQ
	VMOVMSKPD Y2, AX
	MOVQ      AX, BX
	SHLQ      $5, BX
	VMOVDQU   (R9)(BX*1), Y3
	VPERMD    Y1, Y3, Y4
	VPERMD    Y6, Y3, Y5
	VMOVUPD   Y4, (R8)(DX*8)
	VMOVDQU   Y5, (DI)(DX*8)
	POPCNTQ   AX, AX
	ADDQ      AX, DX
	VPADDQ    Y7, Y6, Y6
	ADDQ      $32, SI
	DECQ      CX
	JNZ       compactloop

compactdone:
	MOVQ DX, ret+80(FP)
	VZEROUPPER
	RET
