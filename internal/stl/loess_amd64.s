#include "textflag.h"
#include "go_asm.h"

// The vector forms of fitRow and dataSums3 (loess.go). A YMM lane is an
// output point, never a neighbour: each sum of eight points lives in two
// registers, lane p of the first for the point whose neighbours are y[p:]
// and lane p of the second for y[4+p:]. Every lane runs fitRow's
// statements in fitRow's order and grouping, operand for operand as a
// default (not -race) build of fitRow has them, so that of two NaN
// operands the same one propagates there. Only VMULPD, VADDPD, VANDPD and
// VCMPPD touch the sums: no multiply-add is fused.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// zero is the comparand of the skip mask.
DATA zero<>+0(SB)/8, $0
DATA zero<>+8(SB)/8, $0
DATA zero<>+16(SB)/8, $0
DATA zero<>+24(SB)/8, $0
GLOBL zero<>(SB), RODATA|NOPTR, $32

// WEIGHTED adds neighbour AX's terms of the four points whose y and rho
// start off bytes past R8 and R9 to s0, t0, s1, t1 and s2, in fitRow's
// order: wk = rho*w (Y12); keep = !(wk <= 0) (Y13); wy = y*wk (Y14);
// s0 += wk; t0 += wy; s1 += wk*x; t1 += wy*x; s2 += (x*x)*wk, every term
// ANDed with keep. x is in Y10, x*x in Y11, Y15 is scratch.
#define WEIGHTED(off, s0, t0, s1, t1, s2) \
	VBROADCASTSD (SI)(AX*8), Y15; \
	VMOVUPD off(R9)(AX*8), Y12; \
	VMULPD Y15, Y12, Y12; \
	VCMPPD $6, zero<>(SB), Y12, Y13; \
	VMOVUPD off(R8)(AX*8), Y14; \
	VMULPD Y12, Y14, Y14; \
	VANDPD Y13, Y12, Y15; \
	VADDPD Y15, s0, s0; \
	VANDPD Y13, Y14, Y15; \
	VADDPD Y15, t0, t0; \
	VMULPD Y10, Y12, Y15; \
	VANDPD Y13, Y15, Y15; \
	VADDPD Y15, s1, s1; \
	VMULPD Y10, Y14, Y15; \
	VANDPD Y13, Y15, Y15; \
	VADDPD Y15, t1, t1; \
	VMULPD Y12, Y11, Y15; \
	VANDPD Y13, Y15, Y15; \
	VADDPD Y15, s2, s2

// func weightedSumsAVX(w, xs, y, rho []float64, s *vecSums)
//
// The skip of fitRow's wk <= 0 is the mask !(wk <= 0) (NLE_US: a NaN
// weight stays in, as in fitRow) ANDed into every term, so a skipped term
// adds +0, which changes no accumulator: they start at +0 and a sum that
// starts at +0 is never -0. Masking wk alone would not do: 0*Inf is NaN.
// Points 0-3 accumulate in Y0-Y4, points 4-7 in Y5-Y9.
TEXT ·weightedSumsAVX(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), SI
	MOVQ w_len+8(FP), CX
	MOVQ xs_base+24(FP), DI
	MOVQ y_base+48(FP), R8
	MOVQ rho_base+72(FP), R9
	MOVQ s+96(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	XORQ AX, AX
	TESTQ CX, CX
	JEQ wdone

wloop:
	VBROADCASTSD (DI)(AX*8), Y10 // x
	VMULPD Y10, Y10, Y11         // x*x
	WEIGHTED(0, Y0, Y1, Y2, Y3, Y4)
	WEIGHTED(32, Y5, Y6, Y7, Y8, Y9)
	INCQ AX
	CMPQ AX, CX
	JLT wloop

wdone:
	VMOVUPD Y0, vecSums_s0(DX)
	VMOVUPD Y1, vecSums_t0(DX)
	VMOVUPD Y2, vecSums_s1(DX)
	VMOVUPD Y3, vecSums_t1(DX)
	VMOVUPD Y4, vecSums_s2(DX)
	VMOVUPD Y5, vecSums_s0+32(DX)
	VMOVUPD Y6, vecSums_t0+32(DX)
	VMOVUPD Y7, vecSums_s1+32(DX)
	VMOVUPD Y8, vecSums_t1+32(DX)
	VMOVUPD Y9, vecSums_s2+32(DX)
	VZEROUPPER
	RET

// func dataSumsAVX(w, xs, y []float64, s *vecSums)
//
// Per neighbour and point: wy = y*w; t0 += wy; t1 += wy*x. Points 0-3
// accumulate in Y0 and Y1, points 4-7 in Y2 and Y3.
TEXT ·dataSumsAVX(SB), NOSPLIT, $0-80
	MOVQ w_base+0(FP), SI
	MOVQ w_len+8(FP), CX
	MOVQ xs_base+24(FP), DI
	MOVQ y_base+48(FP), R8
	MOVQ s+72(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX
	TESTQ CX, CX
	JEQ ddone

dloop:
	VBROADCASTSD (SI)(AX*8), Y4 // w
	VBROADCASTSD (DI)(AX*8), Y5 // x
	VMOVUPD (R8)(AX*8), Y6
	VMULPD Y4, Y6, Y6           // wy = y*w
	VADDPD Y6, Y0, Y0           // t0 += wy
	VMULPD Y5, Y6, Y6
	VADDPD Y6, Y1, Y1           // t1 += wy*x
	VMOVUPD 32(R8)(AX*8), Y7
	VMULPD Y4, Y7, Y7
	VADDPD Y7, Y2, Y2
	VMULPD Y5, Y7, Y7
	VADDPD Y7, Y3, Y3
	INCQ AX
	CMPQ AX, CX
	JLT dloop

ddone:
	VMOVUPD Y0, vecSums_t0(DX)
	VMOVUPD Y1, vecSums_t1(DX)
	VMOVUPD Y2, vecSums_t0+32(DX)
	VMOVUPD Y3, vecSums_t1+32(DX)
	VZEROUPPER
	RET
