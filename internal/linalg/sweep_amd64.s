#include "textflag.h"

// func cpuAVX() bool
TEXT ·cpuAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV               // XCR0 into DX:AX
	ANDL $6, AX          // XMM (bit 1) and YMM (bit 2) state
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func subAxpy4AVX(x, r0, r1, r2, r3 []float64, a0, a1, a2, a3 float64)
TEXT ·subAxpy4AVX(SB), NOSPLIT, $0-152
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	MOVQ         r0_base+24(FP), R8
	MOVQ         r1_base+48(FP), R9
	MOVQ         r2_base+72(FP), R10
	MOVQ         r3_base+96(FP), R11
	VBROADCASTSD a0+120(FP), Y0
	VBROADCASTSD a1+128(FP), Y1
	VBROADCASTSD a2+136(FP), Y2
	VBROADCASTSD a3+144(FP), Y3
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $~3, BX // the k below BX go four at a time

vec:
	CMPQ    AX, BX
	JGE     tail
	VMULPD  (R8)(AX*8), Y0, Y5
	VMULPD  (R9)(AX*8), Y1, Y6
	VMULPD  (R10)(AX*8), Y2, Y7
	VMULPD  (R11)(AX*8), Y3, Y8
	VMOVUPD (DI)(AX*8), Y4
	VSUBPD  Y5, Y4, Y4
	VSUBPD  Y6, Y4, Y4
	VSUBPD  Y7, Y4, Y4
	VSUBPD  Y8, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     vec

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSD (DI)(AX*8), X4
	VMULSD (R8)(AX*8), X0, X5
	VSUBSD X5, X4, X4
	VMULSD (R9)(AX*8), X1, X5
	VSUBSD X5, X4, X4
	VMULSD (R10)(AX*8), X2, X5
	VSUBSD X5, X4, X4
	VMULSD (R11)(AX*8), X3, X5
	VSUBSD X5, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func subCols4AVX(s, l []float64, r, j int, y0, y1, y2, y3 float64)
TEXT ·subCols4AVX(SB), NOSPLIT, $0-96
	MOVQ         s_base+0(FP), DI
	MOVQ         s_len+8(FP), CX
	MOVQ         l_base+24(FP), SI
	MOVQ         r+48(FP), AX
	MOVQ         j+56(FP), BX
	VBROADCASTSD y0+64(FP), Y0
	VBROADCASTSD y1+72(FP), Y1
	VBROADCASTSD y2+80(FP), Y2
	VBROADCASTSD y3+88(FP), Y3

	// SI = &L[r][j], at offset r(r+1)/2 + j. DX = 8(r+1), the bytes from
	// L[r][j] to L[r+1][j]; each later row is one entry longer.
	LEAQ  1(AX), DX
	IMULQ AX, DX
	SHRQ  $1, DX
	ADDQ  BX, DX
	LEAQ  (SI)(DX*8), SI
	LEAQ  1(AX), DX
	SHLQ  $3, DX

rows4:
	CMPQ    CX, $4
	JLT     rows1
	VMOVUPD (SI), Y4 // a0 a1 a2 a3: row m
	ADDQ    DX, SI
	ADDQ    $8, DX
	VMOVUPD (SI), Y5 // b0 b1 b2 b3: row m+1
	ADDQ    DX, SI
	ADDQ    $8, DX
	VMOVUPD (SI), Y6 // c0 c1 c2 c3: row m+2
	ADDQ    DX, SI
	ADDQ    $8, DX
	VMOVUPD (SI), Y7 // d0 d1 d2 d3: row m+3
	ADDQ    DX, SI
	ADDQ    $8, DX

	VUNPCKLPD  Y5, Y4, Y8          // a0 b0 a2 b2
	VUNPCKHPD  Y5, Y4, Y9          // a1 b1 a3 b3
	VUNPCKLPD  Y7, Y6, Y10         // c0 d0 c2 d2
	VUNPCKHPD  Y7, Y6, Y11         // c1 d1 c3 d3
	VPERM2F128 $0x20, Y10, Y8, Y4  // a0 b0 c0 d0: column j
	VPERM2F128 $0x20, Y11, Y9, Y5  // a1 b1 c1 d1: column j+1
	VPERM2F128 $0x31, Y10, Y8, Y6  // a2 b2 c2 d2: column j+2
	VPERM2F128 $0x31, Y11, Y9, Y7  // a3 b3 c3 d3: column j+3

	VMULPD  Y0, Y4, Y4
	VMULPD  Y1, Y5, Y5
	VMULPD  Y2, Y6, Y6
	VMULPD  Y3, Y7, Y7
	VMOVUPD (DI), Y12
	VSUBPD  Y4, Y12, Y12
	VSUBPD  Y5, Y12, Y12
	VSUBPD  Y6, Y12, Y12
	VSUBPD  Y7, Y12, Y12
	VMOVUPD Y12, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     rows4

rows1:
	TESTQ  CX, CX
	JZ     done
	VMOVSD (DI), X12
	VMULSD (SI), X0, X4
	VSUBSD X4, X12, X12
	VMULSD 8(SI), X1, X4
	VSUBSD X4, X12, X12
	VMULSD 16(SI), X2, X4
	VSUBSD X4, X12, X12
	VMULSD 24(SI), X3, X4
	VSUBSD X4, X12, X12
	VMOVSD X12, (DI)
	ADDQ   DX, SI
	ADDQ   $8, DX
	ADDQ   $8, DI
	DECQ   CX
	JMP    rows1

done:
	VZEROUPPER
	RET
