// Package linalg provides the numerical kernels of the reproduction: vector
// arithmetic, graph Laplacian operators, conjugate gradients for internal
// high-precision solves, the preconditioned Chebyshev iteration of
// Theorem 2.2, and eigenvalue estimation for measuring the effective
// approximation factor of a spectral sparsifier.
//
// All routines use exact-size float64 slices; per the paper (footnote on
// precision), Omega(1/poly(m)) precision suffices for the interior point
// methods, which float64 comfortably provides.
package linalg

import (
	"fmt"
	"math"
)

// Vec is a dense vector of float64.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	c := make(Vec, len(v))
	copy(c, v)
	return c
}

// Zero sets all entries of v to 0 in place.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Dot returns the inner product of v and w. It panics on length mismatch,
// which always indicates a programming error rather than bad input.
//
// Vectors up to one block (reduceBlock entries) reduce in plain
// left-to-right order; longer ones reduce per block and fold the block
// partials with treeReduce (see blockReduce).
func (v Vec) Dot(w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: dot of vectors with lengths %d and %d", len(v), len(w)))
	}
	kernelCalls(kernelDot)
	return blockReduce(len(v), func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += v[i] * w[i]
		}
		return s
	})
}

// Norm2 returns the Euclidean norm of v.
func (v Vec) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// NormInf returns the maximum absolute entry of v.
func (v Vec) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// AXPY sets v = v + a*w in place.
func (v Vec) AXPY(a float64, w Vec) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: axpy of vectors with lengths %d and %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += a * w[i]
	}
}

// Scale sets v = a*v in place.
func (v Vec) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Sub returns v - w as a new vector.
func (v Vec) Sub(w Vec) Vec {
	r := v.Clone()
	r.AXPY(-1, w)
	return r
}

// Add returns v + w as a new vector.
func (v Vec) Add(w Vec) Vec {
	r := v.Clone()
	r.AXPY(1, w)
	return r
}

// Sum returns the sum of the entries of v, under the same block reduction
// as Dot.
func (v Vec) Sum() float64 {
	kernelCalls(kernelSum)
	return blockReduce(len(v), func(lo, hi int) float64 {
		var s float64
		for _, x := range v[lo:hi] {
			s += x
		}
		return s
	})
}

// Mean returns the average entry of v (0 for the empty vector).
func (v Vec) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// RemoveMean subtracts the mean from every entry in place, projecting v onto
// the subspace orthogonal to the all-ones vector. Laplacian systems L x = b
// are solvable exactly when b lies in this subspace (for connected graphs).
func (v Vec) RemoveMean() {
	m := v.Mean()
	for i := range v {
		v[i] -= m
	}
}

// AXPY, Scale and RemoveMean are the counted forms of the Vec methods of
// the same names: the same arithmetic, plus one increment of
// lapcc_linalg_kernel_calls_total for the kernel. The iterative solvers'
// vector updates use them; setup and estimation code uses the methods.

// AXPY sets v = v + a*w in place, counted as one axpy call.
func AXPY(v Vec, a float64, w Vec) {
	kernelCalls(kernelAXPY)
	v.AXPY(a, w)
}

// Scale sets v = a*v in place, counted as one scale call.
func Scale(v Vec, a float64) {
	kernelCalls(kernelScale)
	v.Scale(a)
}

// RemoveMean subtracts the mean from every entry of v, counted as one
// remove_mean call (and, through Sum, one sum call on a non-empty v).
func RemoveMean(v Vec) {
	kernelCalls(kernelRemoveMean)
	v.RemoveMean()
}

// RemoveMeanOn subtracts, for each index group, the group's mean — the
// per-connected-component generalization of RemoveMean. comp[i] gives the
// component id of index i; ids must be in [0, numComp). Component ids with
// no members are skipped: their (undefined, 0/0) mean is never formed, so an
// empty group can never inject NaN into the vector.
func (v Vec) RemoveMeanOn(comp []int, numComp int) {
	if len(comp) != len(v) {
		panic(fmt.Sprintf("linalg: component labels length %d for vector length %d", len(comp), len(v)))
	}
	sums := make([]float64, numComp)
	counts := make([]int, numComp)
	for i, c := range comp {
		sums[c] += v[i]
		counts[c]++
	}
	means := make([]float64, numComp)
	for c := range means {
		if counts[c] > 0 {
			means[c] = sums[c] / float64(counts[c])
		}
	}
	for i, c := range comp {
		v[i] -= means[c]
	}
}

// IsFinite reports whether every entry of v is finite.
func (v Vec) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// reduceBlock is the fixed reduction block size, in elements. It is part of
// the numeric contract: changing it changes the bits of every reduction
// over more than one block.
const reduceBlock = 4096

// stackBlocks is how many block partials blockReduce keeps on the stack:
// reductions over up to stackBlocks*reduceBlock entries allocate nothing.
const stackBlocks = 64

// blockReduce returns the sum of partial(lo, hi) over the fixed partition
// of [0, n) into reduceBlock spans, the last one ragged. One span is
// returned as is; more are folded by treeReduce in block order. The
// partition and the fold depend only on n, so they fix the bits of Dot,
// Sum and Laplacian.Quad above one block.
func blockReduce(n int, partial func(lo, hi int) float64) float64 {
	if n <= reduceBlock {
		return partial(0, n)
	}
	var buf [stackBlocks]float64
	parts := buf[:0]
	if nb := (n + reduceBlock - 1) / reduceBlock; nb > len(buf) {
		parts = make([]float64, 0, nb)
	}
	for lo := 0; lo < n; lo += reduceBlock {
		parts = append(parts, partial(lo, min(lo+reduceBlock, n)))
	}
	return treeReduce(parts)
}

// treeReduce folds block partials pairwise in block order:
// (p0+p1), (p2+p3), ... then recursively over the halved slice, an odd
// last entry carried up a level. The schedule is a pure function of
// len(parts). It consumes parts as scratch.
func treeReduce(parts []float64) float64 {
	if len(parts) == 0 {
		return 0
	}
	for n := len(parts); n > 1; {
		half := (n + 1) / 2
		for i := 0; i < n/2; i++ {
			parts[i] = parts[2*i] + parts[2*i+1]
		}
		if n%2 == 1 {
			parts[n/2] = parts[n-1]
		}
		n = half
	}
	return parts[0]
}
