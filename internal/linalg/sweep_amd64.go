package linalg

// haveAVX reports whether the factor sweeps run their AVX kernels: the CPU
// has AVX and the operating system saves the YMM registers. Otherwise they
// run the Go kernels, which give the same bits.
var haveAVX = cpuAVX()

// cpuAVX reads CPUID leaf 1 (AVX, OSXSAVE) and XCR0 (XMM and YMM state).
func cpuAVX() bool

// subAxpy4AVX is subAxpy4 four k per vector: a VMULPD then a VSUBPD per
// term, never a fused multiply-add, so every x[k] gets subAxpy4's bits.
// Each r_m must be at least as long as x.
//
//go:noescape
func subAxpy4AVX(x, r0, r1, r2, r3 []float64, a0, a1, a2, a3 float64)

// subCols4AVX subtracts columns j..j+3 of the packed lower triangle l,
// weighted by y0..y3, from rows r..r+len(s)-1:
//
//	s[m] = s[m] - L[r+m][j] y0 - L[r+m][j+1] y1 - L[r+m][j+2] y2 - L[r+m][j+3] y3
//
// subtracting in that order, where L[i][k] = l[i(i+1)/2+k]. Four rows share
// one vector: their 4x4 tile is loaded row by row and transposed in
// registers. It needs j+3 < r and the rows within l.
//
//go:noescape
func subCols4AVX(s, l []float64, r, j int, y0, y1, y2, y3 float64)
