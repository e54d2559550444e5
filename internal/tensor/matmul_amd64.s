#include "textflag.h"

// func kernel4x8AVX(kc int, a *float64, rsA, csA int, b *float64, ldb int, c *float64, ldc int)
//
// C[r][0:8] += A(r, p)·B[p][0:8] for r < 4, p < kc, in ascending p.
// Accumulators: Y0..Y7 = C rows 0..3, two YMM halves each. Products are
// rounded by VMULPD before VADDPD, matching the scalar kernel bit for
// bit; there is deliberately no FMA.
TEXT ·kernel4x8AVX(SB), NOSPLIT, $0-64
	MOVQ kc+0(FP), CX
	TESTQ CX, CX
	JLE  done
	MOVQ a+8(FP), SI
	MOVQ rsA+16(FP), R8
	MOVQ csA+24(FP), R9
	MOVQ b+32(FP), DI
	MOVQ ldb+40(FP), R10
	MOVQ c+48(FP), DX
	MOVQ ldc+56(FP), R11
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R8)(R8*2), R12   // 3 A rows, in bytes
	LEAQ (DX)(R11*2), R13  // C row 2
	LEAQ (R11)(R11*2), BX  // 3 C rows, in bytes

	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD (DX)(R11*1), Y2
	VMOVUPD 32(DX)(R11*1), Y3
	VMOVUPD (R13), Y4
	VMOVUPD 32(R13), Y5
	VMOVUPD (DX)(BX*1), Y6
	VMOVUPD 32(DX)(BX*1), Y7

loop:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9

	VBROADCASTSD (SI), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1

	VBROADCASTSD (SI)(R8*1), Y13
	VMULPD Y8, Y13, Y14
	VMULPD Y9, Y13, Y15
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3

	VBROADCASTSD (SI)(R8*2), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y4, Y4
	VADDPD Y12, Y5, Y5

	VBROADCASTSD (SI)(R12*1), Y13
	VMULPD Y8, Y13, Y14
	VMULPD Y9, Y13, Y15
	VADDPD Y14, Y6, Y6
	VADDPD Y15, Y7, Y7

	ADDQ R9, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  loop

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R11*1)
	VMOVUPD Y3, 32(DX)(R11*1)
	VMOVUPD Y4, (R13)
	VMOVUPD Y5, 32(R13)
	VMOVUPD Y6, (DX)(BX*1)
	VMOVUPD Y7, 32(DX)(BX*1)
	VZEROUPPER

done:
	RET

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

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
