package linalg

// haveAVX reports whether the factor sweeps and the lane kernels run their
// AVX kernels: the CPU has AVX and the operating system saves the YMM
// registers. Otherwise they run the Go kernels, which give the same bits.
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

// forwardLanesAVX is forwardLanes four lanes per vector: each 4x4
// diagonal block is finished with VDIVPD, VMULPD and VSUBPD on all lanes
// at once, then its four columns are subtracted from every later row
// against broadcast factor entries. A multiply then a subtract per term,
// never fused, so every lane gets forwardLanes' bits.
//
//go:noescape
func forwardLanesAVX(x, l []float64, n int)

// backLanesAVX is backLanes four lanes per vector, in the same way.
//
//go:noescape
func backLanesAVX(x, l []float64, n int)

// applyLanesAVX is the Laplacian apply of ApplyLanes four lanes per
// vector: dst = deg*src entry by entry, then for each pair p, dst[cu[p]]
// -= cw[p]*src[cv[p]] and dst[cv[p]] -= cw[p]*src[cu[p]], a multiply then
// a subtract per term. It needs dst and src to hold len(deg) entries of
// four lanes and every cu, cv below len(deg).
//
//go:noescape
func applyLanesAVX(dst, src, deg []float64, cu, cv []int32, cw []float64)

// subMeanLanesAVX subtracts each lane's mean from the interleaved v, which
// holds n entries of four lanes, n at most one reduction block: each
// lane's sum accumulates in ascending order from +0, as Sum's one block
// does, and is divided by n.
//
//go:noescape
func subMeanLanesAVX(v []float64, n float64)
