package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// subCols4 is subCols4AVX one row at a time: the reference it must match.
func subCols4(s, l []float64, r, j int, y0, y1, y2, y3 float64) {
	for m := range s {
		o := (r+m)*(r+m+1)/2 + j
		s[m] = s[m] - l[o]*y0 - l[o+1]*y1 - l[o+2]*y2 - l[o+3]*y3
	}
}

// at returns a copy of v starting off entries into its backing array.
func at(v []float64, off int) []float64 {
	s := make([]float64, off+len(v))
	copy(s[off:], v)
	return s[off:]
}

// TestSweepKernelsBitIdentical compares each AVX kernel with its Go kernel
// bit for bit on seeded data: every length from 0 to 299, slices starting
// 0 to 3 entries into their backing arrays, entries of both signs with
// magnitudes from 1e-10 to 1e10, and for the forward sweep dst aliasing b.
// A fused multiply-add in place of a kernel's multiply and subtract rounds
// once instead of twice, and fails it.
func TestSweepKernelsBitIdentical(t *testing.T) {
	if !haveAVX {
		t.Skip("no AVX kernels: the CPU lacks AVX, the OS does not save YMM state, or the platform is not amd64")
	}
	rng := rand.New(rand.NewSource(29))
	// wide draws an entry of either sign with magnitude 10^u, u uniform in
	// [-10, 10].
	wide := func() float64 {
		return math.Copysign(math.Pow(10, 20*rng.Float64()-10), rng.Float64()-0.5)
	}
	// vec returns n wide entries starting off entries into their backing
	// array.
	vec := func(n, off int) []float64 {
		s := make([]float64, off+n)
		for i := range s {
			s[i] = wide()
		}
		return s[off:]
	}
	t.Run("subAxpy4", func(t *testing.T) {
		for n := 0; n < 300; n++ {
			for off := 0; off < 4; off++ {
				// Rows may run longer than x, as the factor's rows do.
				r0, r1, r2, r3 := vec(n, off), vec(n+1, (off+1)%4), vec(n+2, (off+2)%4), vec(n+3, (off+3)%4)
				a0, a1, a2, a3 := wide(), wide(), wide(), wide()
				want := vec(n, off)
				got := at(want, (off+1)%4)
				subAxpy4(want, r0, r1, r2, r3, a0, a1, a2, a3)
				subAxpy4AVX(got, r0, r1, r2, r3, a0, a1, a2, a3)
				sameBits(t, "subAxpy4AVX", got, want)
			}
		}
	})
	t.Run("subCols4", func(t *testing.T) {
		const rows = 310
		var ls [4][]float64
		for off := range ls {
			ls[off] = vec(rows*(rows+1)/2, off)
		}
		for n := 0; n < 300; n++ {
			for off, l := range ls {
				r := 4 + rng.Intn(rows-n-3) // rows r..r+n-1 exist
				j := rng.Intn(r - 3)        // columns j..j+3 lie below the diagonal
				y0, y1, y2, y3 := wide(), wide(), wide(), wide()
				want := vec(n, off)
				got := at(want, (off+2)%4)
				subCols4(want, l, r, j, y0, y1, y2, y3)
				subCols4AVX(got, l, r, j, y0, y1, y2, y3)
				sameBits(t, "subCols4AVX", got, want)
			}
		}
	})
	t.Run("forward", func(t *testing.T) {
		// Row i's diagonal outweighs the sum of its other entries, so every
		// y stays within the largest |b| and no sweep overflows.
		const rows = 300
		c := newCholeskyFactor(rows)
		for i := 0; i < rows; i++ {
			ri := c.row(i)
			sum := 1.0
			for k := range ri[:i] {
				ri[k] = wide()
				sum += math.Abs(ri[k])
			}
			ri[i] = math.Copysign(sum*(1+rng.Float64()), wide())
		}
		for n := 0; n < rows; n++ {
			b := vec(n, n%4)
			want := NewVec(n)
			c.forward(want, b, false)
			got := at(make([]float64, n), n/4%4)
			c.forward(got, b, true)
			sameBits(t, "forward", got, want)
			in := at(b, (n+1)%4)
			c.forward(in, in, true)
			sameBits(t, "in-place forward", in, want)
		}
	})
}
