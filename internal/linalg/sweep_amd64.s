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

// func forwardLanesAVX(x, l []float64, n int)
TEXT ·forwardLanesAVX(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), DI
	MOVQ l_base+24(FP), SI
	MOVQ n+48(FP), CX
	XORQ AX, AX // i: the block's first row

fblock:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  ftail

	// R8 = &L[i][i], at offset i(i+1)/2 + i. Row i+1 starts i+1 entries
	// after row i, so R9 = &L[i+1][i] = R8 + 8(i+1), R10 = &L[i+2][i] =
	// R9 + 8(i+2) and R11 = &L[i+3][i] = R10 + 8(i+3). R12 = &x[i], four
	// lanes (32 bytes) per entry.
	LEAQ  1(AX), BX
	IMULQ AX, BX
	SHRQ  $1, BX
	ADDQ  AX, BX
	LEAQ  (SI)(BX*8), R8
	LEAQ  8(R8)(AX*8), R9
	LEAQ  16(R9)(AX*8), R10
	LEAQ  24(R10)(AX*8), R11
	MOVQ  AX, BX
	SHLQ  $5, BX
	LEAQ  (DI)(BX*1), R12

	// The diagonal block: y_m = (s_m - sum_{t<m} L[i+m][i+t] y_t) / L[i+m][i+m].
	VMOVUPD      (R12), Y0
	VMOVUPD      32(R12), Y1
	VMOVUPD      64(R12), Y2
	VMOVUPD      96(R12), Y3
	VBROADCASTSD (R8), Y8
	VDIVPD       Y8, Y0, Y0
	VBROADCASTSD (R9), Y8
	VMULPD       Y0, Y8, Y8
	VSUBPD       Y8, Y1, Y1
	VBROADCASTSD 8(R9), Y8
	VDIVPD       Y8, Y1, Y1
	VBROADCASTSD (R10), Y8
	VMULPD       Y0, Y8, Y8
	VSUBPD       Y8, Y2, Y2
	VBROADCASTSD 8(R10), Y8
	VMULPD       Y1, Y8, Y8
	VSUBPD       Y8, Y2, Y2
	VBROADCASTSD 16(R10), Y8
	VDIVPD       Y8, Y2, Y2
	VBROADCASTSD (R11), Y8
	VMULPD       Y0, Y8, Y8
	VSUBPD       Y8, Y3, Y3
	VBROADCASTSD 8(R11), Y8
	VMULPD       Y1, Y8, Y8
	VSUBPD       Y8, Y3, Y3
	VBROADCASTSD 16(R11), Y8
	VMULPD       Y2, Y8, Y8
	VSUBPD       Y8, Y3, Y3
	VBROADCASTSD 24(R11), Y8
	VDIVPD       Y8, Y3, Y3
	VMOVUPD      Y0, (R12)
	VMOVUPD      Y1, 32(R12)
	VMOVUPD      Y2, 64(R12)
	VMOVUPD      Y3, 96(R12)

	// Every later row m: s_m -= L[m][i] y0 + ... + L[m][i+3] y3, term by
	// term. R11 = &L[m][i], one entry further per row than the last.
	LEAQ 4(AX), R13
	LEAQ (R11)(R13*8), R11
	ADDQ $128, R12

frow:
	CMPQ         R13, CX
	JGE          fnext
	VBROADCASTSD (R11), Y8
	VBROADCASTSD 8(R11), Y9
	VBROADCASTSD 16(R11), Y10
	VBROADCASTSD 24(R11), Y11
	VMULPD       Y0, Y8, Y8
	VMULPD       Y1, Y9, Y9
	VMULPD       Y2, Y10, Y10
	VMULPD       Y3, Y11, Y11
	VMOVUPD      (R12), Y12
	VSUBPD       Y8, Y12, Y12
	VSUBPD       Y9, Y12, Y12
	VSUBPD       Y10, Y12, Y12
	VSUBPD       Y11, Y12, Y12
	VMOVUPD      Y12, (R12)
	ADDQ         $32, R12
	INCQ         R13
	LEAQ         (R11)(R13*8), R11
	JMP          frow

fnext:
	ADDQ $4, AX
	JMP  fblock

	// The rows left over, one at a time, against the columns from DX = the
	// first of them on (the blocks' columns are already subtracted).
ftail:
	MOVQ AX, DX

ftrow:
	CMPQ  AX, CX
	JGE   fdone
	LEAQ  1(AX), BX
	IMULQ AX, BX
	SHRQ  $1, BX
	ADDQ  DX, BX
	LEAQ  (SI)(BX*8), R8 // &L[i][DX]
	MOVQ  AX, BX
	SHLQ  $5, BX
	LEAQ  (DI)(BX*1), R12 // &x[i]
	MOVQ  DX, BX
	SHLQ  $5, BX
	LEAQ  (DI)(BX*1), R9 // &x[DX]
	VMOVUPD (R12), Y0

ftcol:
	CMPQ         R9, R12
	JGE          ftdiv
	VBROADCASTSD (R8), Y8
	VMULPD       (R9), Y8, Y8
	VSUBPD       Y8, Y0, Y0
	ADDQ         $8, R8
	ADDQ         $32, R9
	JMP          ftcol

ftdiv:
	VBROADCASTSD (R8), Y8 // L[i][i]
	VDIVPD       Y8, Y0, Y0
	VMOVUPD      Y0, (R12)
	INCQ         AX
	JMP          ftrow

fdone:
	VZEROUPPER
	RET

// func backLanesAVX(x, l []float64, n int)
TEXT ·backLanesAVX(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), DI
	MOVQ l_base+24(FP), SI
	MOVQ n+48(FP), CX
	LEAQ -1(CX), AX // i: the block's last row

bblock:
	CMPQ AX, $3
	JLT  btail

	// R8..R11 = rows i..i-3, at offsets i(i+1)/2, then i, i-1 and i-2
	// entries earlier. R12 = &x[i-3].
	LEAQ  1(AX), BX
	IMULQ AX, BX
	SHRQ  $1, BX
	LEAQ  (SI)(BX*8), R8
	MOVQ  AX, BX
	SHLQ  $3, BX
	MOVQ  R8, R9
	SUBQ  BX, R9
	SUBQ  $8, BX
	MOVQ  R9, R10
	SUBQ  BX, R10
	SUBQ  $8, BX
	MOVQ  R10, R11
	SUBQ  BX, R11
	LEAQ  -3(AX), BX
	SHLQ  $5, BX
	LEAQ  (DI)(BX*1), R12

	// The diagonal block, bottom up: x0 = x[i] / L[i][i], then each row
	// less the rows below it, divided by its own diagonal.
	VMOVUPD      96(R12), Y0
	VMOVUPD      64(R12), Y1
	VMOVUPD      32(R12), Y2
	VMOVUPD      (R12), Y3
	VBROADCASTSD (R8)(AX*8), Y8
	VDIVPD       Y8, Y0, Y0
	VBROADCASTSD -8(R8)(AX*8), Y8
	VMULPD       Y0, Y8, Y8
	VSUBPD       Y8, Y1, Y1
	VBROADCASTSD -8(R9)(AX*8), Y8
	VDIVPD       Y8, Y1, Y1
	VBROADCASTSD -16(R8)(AX*8), Y8
	VMULPD       Y0, Y8, Y8
	VSUBPD       Y8, Y2, Y2
	VBROADCASTSD -16(R9)(AX*8), Y8
	VMULPD       Y1, Y8, Y8
	VSUBPD       Y8, Y2, Y2
	VBROADCASTSD -16(R10)(AX*8), Y8
	VDIVPD       Y8, Y2, Y2
	VBROADCASTSD -24(R8)(AX*8), Y8
	VMULPD       Y0, Y8, Y8
	VSUBPD       Y8, Y3, Y3
	VBROADCASTSD -24(R9)(AX*8), Y8
	VMULPD       Y1, Y8, Y8
	VSUBPD       Y8, Y3, Y3
	VBROADCASTSD -24(R10)(AX*8), Y8
	VMULPD       Y2, Y8, Y8
	VSUBPD       Y8, Y3, Y3
	VBROADCASTSD -24(R11)(AX*8), Y8
	VDIVPD       Y8, Y3, Y3
	VMOVUPD      Y0, 96(R12)
	VMOVUPD      Y1, 64(R12)
	VMOVUPD      Y2, 32(R12)
	VMOVUPD      Y3, (R12)

	// Every earlier row k: x[k] -= L[i][k] x0 + ... + L[i-3][k] x3, term
	// by term.
	XORQ BX, BX
	MOVQ DI, R13
	LEAQ -3(AX), DX

bcol:
	CMPQ         BX, DX
	JGE          bnext
	VBROADCASTSD (R8)(BX*8), Y8
	VBROADCASTSD (R9)(BX*8), Y9
	VBROADCASTSD (R10)(BX*8), Y10
	VBROADCASTSD (R11)(BX*8), Y11
	VMULPD       Y0, Y8, Y8
	VMULPD       Y1, Y9, Y9
	VMULPD       Y2, Y10, Y10
	VMULPD       Y3, Y11, Y11
	VMOVUPD      (R13), Y12
	VSUBPD       Y8, Y12, Y12
	VSUBPD       Y9, Y12, Y12
	VSUBPD       Y10, Y12, Y12
	VSUBPD       Y11, Y12, Y12
	VMOVUPD      Y12, (R13)
	ADDQ         $32, R13
	INCQ         BX
	JMP          bcol

bnext:
	SUBQ $4, AX
	JMP  bblock

	// The rows left over at the top, one at a time.
btail:
	CMPQ         AX, $0
	JLT          bdone
	LEAQ         1(AX), BX
	IMULQ        AX, BX
	SHRQ         $1, BX
	LEAQ         (SI)(BX*8), R8
	MOVQ         AX, BX
	SHLQ         $5, BX
	VMOVUPD      (DI)(BX*1), Y0
	VBROADCASTSD (R8)(AX*8), Y8
	VDIVPD       Y8, Y0, Y0
	VMOVUPD      Y0, (DI)(BX*1)
	XORQ         DX, DX
	MOVQ         DI, R13

btcol:
	CMPQ         DX, AX
	JGE          btnext
	VBROADCASTSD (R8)(DX*8), Y8
	VMULPD       Y0, Y8, Y8
	VMOVUPD      (R13), Y12
	VSUBPD       Y8, Y12, Y12
	VMOVUPD      Y12, (R13)
	ADDQ         $32, R13
	INCQ         DX
	JMP          btcol

btnext:
	DECQ AX
	JMP  btail

bdone:
	VZEROUPPER
	RET

// func applyLanesAVX(dst, src, deg []float64, cu, cv []int32, cw []float64)
TEXT ·applyLanesAVX(SB), NOSPLIT, $0-144
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ deg_base+48(FP), R8
	MOVQ deg_len+56(FP), CX
	XORQ AX, AX
	XORQ BX, BX // 32 bytes per entry: BX = 32i

diag:
	CMPQ         AX, CX
	JGE          pairs
	VBROADCASTSD (R8)(AX*8), Y0
	VMULPD       (SI)(BX*1), Y0, Y1
	VMOVUPD      Y1, (DI)(BX*1)
	INCQ         AX
	ADDQ         $32, BX
	JMP          diag

pairs:
	MOVQ cu_base+72(FP), R9
	MOVQ cv_base+96(FP), R10
	MOVQ cw_base+120(FP), R11
	MOVQ cw_len+128(FP), CX
	XORQ AX, AX

pair:
	CMPQ         AX, CX
	JGE          done
	VBROADCASTSD (R11)(AX*8), Y0
	MOVLQSX      (R9)(AX*4), BX
	MOVLQSX      (R10)(AX*4), DX
	SHLQ         $5, BX
	SHLQ         $5, DX
	VMULPD       (SI)(DX*1), Y0, Y1 // w src[v]
	VMOVUPD      (DI)(BX*1), Y2
	VSUBPD       Y1, Y2, Y2
	VMOVUPD      Y2, (DI)(BX*1)     // dst[u] -= w src[v]
	VMULPD       (SI)(BX*1), Y0, Y1 // w src[u]
	VMOVUPD      (DI)(DX*1), Y2
	VSUBPD       Y1, Y2, Y2
	VMOVUPD      Y2, (DI)(DX*1)     // dst[v] -= w src[u]
	INCQ         AX
	JMP          pair

done:
	VZEROUPPER
	RET

// func subMeanLanesAVX(v []float64, n float64)
TEXT ·subMeanLanesAVX(SB), NOSPLIT, $0-32
	MOVQ   v_base+0(FP), SI
	MOVQ   v_len+8(FP), CX
	SHRQ   $2, CX       // entries of four lanes
	MOVQ   SI, DI
	MOVQ   CX, DX
	VXORPD Y0, Y0, Y0

sum:
	TESTQ  DX, DX
	JZ     mean
	VADDPD (DI), Y0, Y0
	ADDQ   $32, DI
	DECQ   DX
	JMP    sum

mean:
	VBROADCASTSD n+24(FP), Y1
	VDIVPD       Y1, Y0, Y0 // each lane's mean

sub:
	TESTQ   CX, CX
	JZ      done
	VMOVUPD (SI), Y2
	VSUBPD  Y0, Y2, Y2
	VMOVUPD Y2, (SI)
	ADDQ    $32, SI
	DECQ    CX
	JMP     sub

done:
	VZEROUPPER
	RET
