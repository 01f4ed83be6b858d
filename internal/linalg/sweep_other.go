//go:build !amd64

package linalg

// haveAVX is false off amd64: the factor sweeps run the Go kernels.
const haveAVX = false

func subAxpy4AVX(x, r0, r1, r2, r3 []float64, a0, a1, a2, a3 float64) {
	panic("linalg: no AVX kernels on this platform")
}

func subCols4AVX(s, l []float64, r, j int, y0, y1, y2, y3 float64) {
	panic("linalg: no AVX kernels on this platform")
}
