package linalg

import (
	"errors"
	"fmt"
	"math"

	"lapcc/internal/graph"
)

// Dense is a square dense matrix in row-major order, used for small-scale
// verification: the exact solves and eigensolves the tests compare
// iterative results against. Exact solves with a globally-known sparsifier
// do not go through Dense: they factor the sparsifier's shifted Laplacian
// straight from its edge list (LaplacianCholesky) into a packed
// CholeskyFactor.
type Dense struct {
	n int
	a []float64
}

var _ Operator = (*Dense)(nil)

// ErrNotPD reports a Cholesky factorization attempted on a matrix that is
// not (numerically) positive definite.
var ErrNotPD = errors.New("linalg: matrix is not positive definite")

// NewDense returns the n x n zero matrix.
func NewDense(n int) *Dense { return &Dense{n: n, a: make([]float64, n*n)} }

// Dim returns n.
func (d *Dense) Dim() int { return d.n }

// At returns element (i,j).
func (d *Dense) At(i, j int) float64 { return d.a[i*d.n+j] }

// Set assigns element (i,j).
func (d *Dense) Set(i, j int, v float64) { d.a[i*d.n+j] = v }

// Add increments element (i,j) by v.
func (d *Dense) Add(i, j int, v float64) { d.a[i*d.n+j] += v }

// Apply computes dst = D*src.
func (d *Dense) Apply(dst, src Vec) {
	for i := 0; i < d.n; i++ {
		row := d.a[i*d.n : (i+1)*d.n]
		var s float64
		for j, v := range src {
			s += row[j] * v
		}
		dst[i] = s
	}
}

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	c := NewDense(d.n)
	copy(c.a, d.a)
	return c
}

// Cholesky computes the lower-triangular factor of a symmetric positive
// definite matrix, returning a solver for systems with it. Only the lower
// triangle is read.
func (d *Dense) Cholesky() (*CholeskyFactor, error) {
	c := packLower(d)
	if err := c.factor(); err != nil {
		return nil, err
	}
	return c, nil
}

// CholeskyFactor is a lower-triangular Cholesky factor L with A = L L^T,
// stored as a packed row-major lower triangle: row i holds L[i][0..i] at
// offset i(i+1)/2, n(n+1)/2 entries in all. The factorization and both
// triangular sweeps walk whole rows front to back, so they stream memory.
//
// They work on four rows per pass. The forward sweep accumulates the dots
// of rows i..i+3 in one pass over the solved prefix (subDots4), the back
// sweep subtracts the contributions of four finished rows in one pass
// (subAxpy4), and the factorization computes L[i][j..j+3] together with
// the forward helper. Four independent accumulations hide the latency a
// single row's serial chain exposes. Every entry still receives the same
// operations in the same order as in a row-at-a-time loop — each dot
// ascending in k, each back-sweep update in descending row order — so the
// factor and the solutions are bit-identical to it for every n, including
// when dst aliases b.
type CholeskyFactor struct {
	n int
	l []float64
}

func newCholeskyFactor(n int) *CholeskyFactor {
	return &CholeskyFactor{n: n, l: make([]float64, n*(n+1)/2)}
}

// packLower returns an unfactored CholeskyFactor holding d's lower triangle.
func packLower(d *Dense) *CholeskyFactor {
	c := newCholeskyFactor(d.n)
	for i := 0; i < d.n; i++ {
		copy(c.row(i), d.a[i*d.n:i*d.n+i+1])
	}
	return c
}

// row returns the packed row i, L[i][0..i].
func (c *CholeskyFactor) row(i int) []float64 {
	o := i * (i + 1) / 2
	return c.l[o : o+i+1]
}

// factor overwrites the packed lower triangle of A with its Cholesky factor,
// row by row: L[i][j] = (A[i][j] - sum_{k<j} L[i][k] L[j][k]) / L[j][j],
// each sum taken in ascending k. That is a forward sweep of the rows
// already factored over row i's own prefix, in place. It fails with
// ErrNotPD on the first pivot that is not positive and finite.
func (c *CholeskyFactor) factor() error {
	for i := 0; i < c.n; i++ {
		ri := c.row(i)
		c.forward(ri[:i], ri[:i])
		piv := ri[i]
		for _, v := range ri[:i] {
			piv -= v * v
		}
		if !(piv > 0) || math.IsInf(piv, 0) {
			return fmt.Errorf("%w: pivot %d is %v", ErrNotPD, i, piv)
		}
		ri[i] = math.Sqrt(piv)
	}
	return nil
}

// forward sets dst to the y with L' y = b, where L' is the leading
// len(dst) x len(dst) block of L: y[i] = (b[i] - sum_{k<i} L[i][k] y[k]) /
// L[i][i], each sum in ascending k. Four rows share one pass over y[:i];
// the rows left over when len(dst) is not a multiple of four run one at a
// time. dst may alias b.
func (c *CholeskyFactor) forward(dst, b []float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		r0, r1, r2, r3 := c.row(i), c.row(i+1), c.row(i+2), c.row(i+3)
		s0, s1, s2, s3 := subDots4(dst[:i], r0, r1, r2, r3, b[i], b[i+1], b[i+2], b[i+3])
		y0 := s0 / r0[i]
		y1 := (s1 - r1[i]*y0) / r1[i+1]
		y2 := (s2 - r2[i]*y0 - r2[i+1]*y1) / r2[i+2]
		y3 := (s3 - r3[i]*y0 - r3[i+1]*y1 - r3[i+2]*y2) / r3[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = y0, y1, y2, y3
	}
	for ; i < n; i++ {
		ri := c.row(i)
		s := b[i]
		for k, v := range ri[:i] {
			s -= v * dst[k]
		}
		dst[i] = s / ri[i]
	}
}

// subDots4 returns s_m - sum_k r_m[k] x[k] for m = 0..3, each sum taken in
// ascending k over x. Each r_m must be at least as long as x. It and
// subAxpy4 stay out of line: inlined, their loops share registers with the
// caller's and spill the loop counter on every iteration.
//
//go:noinline
func subDots4(x, r0, r1, r2, r3 []float64, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
	for k, v := range x {
		s0 -= r0[k] * v
		s1 -= r1[k] * v
		s2 -= r2[k] * v
		s3 -= r3[k] * v
	}
	return s0, s1, s2, s3
}

// subAxpy4 sets x[k] = x[k] - r0[k] a0 - r1[k] a1 - r2[k] a2 - r3[k] a3,
// subtracting in that order. Each r_m must be at least as long as x.
//
//go:noinline
func subAxpy4(x, r0, r1, r2, r3 []float64, a0, a1, a2, a3 float64) {
	r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
	for k := range x {
		x[k] = x[k] - r0[k]*a0 - r1[k]*a1 - r2[k]*a2 - r3[k]*a3
	}
}

// SolveTo sets dst to the x with A x = b by forward then back substitution.
// It allocates nothing, and dst may alias b.
func (c *CholeskyFactor) SolveTo(dst, b Vec) {
	// Forward: L y = b.
	c.forward(dst[:c.n], b[:c.n])
	// Back: L^T x = y. Column i of L^T is row i of L, so once x[i] is final
	// the sweep subtracts its contribution from the entries above it: four
	// rows i..i-3 are finished against each other, then all four are
	// subtracted from dst[:i-3] in one pass.
	i := c.n - 1
	for ; i >= 3; i -= 4 {
		r0, r1, r2, r3 := c.row(i), c.row(i-1), c.row(i-2), c.row(i-3)
		x0 := dst[i] / r0[i]
		x1 := (dst[i-1] - r0[i-1]*x0) / r1[i-1]
		x2 := (dst[i-2] - r0[i-2]*x0 - r1[i-2]*x1) / r2[i-2]
		x3 := (dst[i-3] - r0[i-3]*x0 - r1[i-3]*x1 - r2[i-3]*x2) / r3[i-3]
		dst[i], dst[i-1], dst[i-2], dst[i-3] = x0, x1, x2, x3
		subAxpy4(dst[:i-3], r0, r1, r2, r3, x0, x1, x2, x3)
	}
	for ; i >= 0; i-- {
		ri := c.row(i)
		xi := dst[i] / ri[i]
		dst[i] = xi
		for k, v := range ri[:i] {
			dst[k] -= v * xi
		}
	}
}

// Solve returns the x with A x = b.
func (c *CholeskyFactor) Solve(b Vec) Vec {
	x := NewVec(c.n)
	c.SolveTo(x, b)
	return x
}

// LaplacianCholesky factors L + J/n for the Laplacian L of g, assembled
// straight from the edge list into the packed lower triangle (n(n+1)/2
// entries; no n x n temporary). For a connected graph the shifted matrix is
// positive definite and PseudoSolveTo applies L^+ with it; otherwise — or
// on weights that overflow the factorization — it fails with ErrNotPD. The
// factorization is sequential and the assembly runs in edge order, so the
// factor is a pure function of g's edge list.
func LaplacianCholesky(g *graph.Graph) (*CholeskyFactor, error) {
	c := newCholeskyFactor(g.N())
	for _, e := range g.Edges() {
		c.row(e.U)[e.U] += e.W
		c.row(e.V)[e.V] += e.W
		c.row(e.V)[e.U] -= e.W // U < V: the pair's lower-triangle entry
	}
	c.shiftJ()
	if err := c.factor(); err != nil {
		return nil, fmt.Errorf("linalg: shifted Laplacian factorization (graph disconnected?): %w", err)
	}
	return c, nil
}

// FactorMaxN is the largest vertex count whose Laplacian the internal exact
// solves factor: the packed factor of L + J/n holds n(n+1)/2 float64s,
// 4 MiB at n = 1024. Above it they run CG. The Laplacian solver's
// sparsifier solve and the alpha measurement's pencil solves share this cap.
const FactorMaxN = 1024

// LaplacianSolver returns the internal solver for a graph Laplacian: a
// closure mapping b to L^+ b in a freshly allocated vector. At or below
// FactorMaxN vertices it factors L + J/n once (LaplacianCholesky) and every
// call is an exact PseudoSolveTo; above the cap, or when factoring fails
// (a disconnected graph), it is LaplacianCGSolver(l, tol). Either way it
// models a node solving a globally-known graph internally, at zero rounds.
func LaplacianSolver(l *Laplacian, tol float64) func(Vec) (Vec, error) {
	if l.Dim() <= FactorMaxN {
		if f, err := LaplacianCholesky(l.Graph()); err == nil {
			return func(b Vec) (Vec, error) {
				x := NewVec(len(b))
				f.PseudoSolveTo(x, b)
				return x, nil
			}
		}
	}
	return LaplacianCGSolver(l, tol)
}

// shiftJ adds the rank-one shift J/n to every packed entry.
func (c *CholeskyFactor) shiftJ() {
	inv := 1.0 / float64(c.n)
	for i := range c.l {
		c.l[i] += inv
	}
}

// PseudoSolveTo sets dst = L^+ b for a factor of L + J/n (LaplacianCholesky,
// LaplacianPseudoSolve): it projects b onto the mean-free subspace, solves,
// and projects the result, using the identity L^+ b = (L + J/n)^{-1} b for
// mean-free b — J annihilates range(L) and L L^+ projects onto it. It
// allocates nothing, and dst may alias b.
func (c *CholeskyFactor) PseudoSolveTo(dst, b Vec) {
	copy(dst, b)
	dst.RemoveMean()
	c.SolveTo(dst, dst)
	dst.RemoveMean()
}

// LaplacianPseudoSolve solves L x = b for a connected graph's Laplacian
// given as a dense matrix, where b must be orthogonal to the all-ones
// vector. It factors L + J/n from the lower triangle of l and applies
// PseudoSolveTo, the same code the solver's exact sparsifier and dense
// fallback solves run. The returned x has zero mean. This is the reference
// exact solver the tests compare iterative solvers against.
func LaplacianPseudoSolve(l *Dense, b Vec) (Vec, error) {
	n := l.Dim()
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d for matrix dimension %d", len(b), n)
	}
	c := packLower(l)
	c.shiftJ()
	if err := c.factor(); err != nil {
		return nil, fmt.Errorf("linalg: pseudo-solve shift factorization (graph disconnected?): %w", err)
	}
	x := NewVec(n)
	c.PseudoSolveTo(x, b)
	return x, nil
}
