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
	ANDL $(1<<27 | 1<<28), CX // OSXSAVE and AVX
	CMPL CX, $(1<<27 | 1<<28)
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
