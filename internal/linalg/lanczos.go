package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Lanczos-based eigenvalue estimation. The power-iteration route
// (PencilBounds) needs solves with *both* matrices of the pencil; the
// Lanczos route needs only the preconditioner solve: the operator B^+A is
// self-adjoint in the B-inner product, so a generalized Lanczos iteration
// builds a tridiagonal whose extremal Ritz values converge to both ends of
// the pencil spectrum simultaneously. Everything here is internal
// computation in the congested-clique accounting (used for measurement and
// experiments, not inside the round-counted algorithms).

// ErrLanczosBreakdown reports an invariant subspace hit before any
// meaningful tridiagonal was built.
var ErrLanczosBreakdown = errors.New("linalg: Lanczos breakdown at first step")

// Tridiagonal holds the Lanczos coefficients: diagonal Alpha[0..k-1] and
// off-diagonal Beta[0..k-2].
type Tridiagonal struct {
	Alpha []float64
	Beta  []float64
}

// Lanczos runs up to k steps of the Lanczos iteration for the operator
// represented by apply, self-adjoint with respect to the (semi-definite)
// inner product inner. Full reorthogonalization against the stored basis
// keeps the tridiagonal faithful (plain three-term recurrences lose
// orthogonality in floating point and produce ghost eigenvalues); the
// measurement sizes this package targets make the O(k n) extra work
// negligible. Early termination on (near-)breakdown returns the
// tridiagonal built so far.
func Lanczos(n, k int, start Vec, apply func(dst, src Vec), inner func(u, v Vec) float64) (*Tridiagonal, error) {
	if len(start) != n {
		return nil, fmt.Errorf("linalg: start vector length %d for dimension %d", len(start), n)
	}
	if k > n {
		k = n
	}
	q := start.Clone()
	nrm := math.Sqrt(math.Max(inner(q, q), 0))
	if nrm == 0 {
		return nil, ErrLanczosBreakdown
	}
	q.Scale(1 / nrm)
	basis := []Vec{q.Clone()}
	td := &Tridiagonal{}
	w := NewVec(n)
	scale := 0.0
	for j := 0; j < k; j++ {
		apply(w, basis[j])
		alpha := inner(basis[j], w)
		td.Alpha = append(td.Alpha, alpha)
		if a := math.Abs(alpha); a > scale {
			scale = a
		}
		// Two passes of Gram-Schmidt against the whole basis (in the
		// operator's inner product) instead of the three-term recurrence.
		for pass := 0; pass < 2; pass++ {
			for _, b := range basis {
				c := inner(b, w)
				w.AXPY(-c, b)
			}
		}
		beta := math.Sqrt(math.Max(inner(w, w), 0))
		// Relative breakdown test: once the residual is negligible against
		// the spectrum scale, further vectors are noise and would
		// contaminate the Ritz values.
		if beta < 1e-7*(scale+1) || j+1 >= k {
			break
		}
		td.Beta = append(td.Beta, beta)
		if beta > scale {
			scale = beta
		}
		next := w.Clone()
		next.Scale(1 / beta)
		basis = append(basis, next)
	}
	if len(td.Alpha) == 0 {
		return nil, ErrLanczosBreakdown
	}
	return td, nil
}

// EigenRange returns the smallest and largest eigenvalue of the symmetric
// tridiagonal via bisection on the Sturm sequence (robust, no external
// dependencies).
func (td *Tridiagonal) EigenRange() (lo, hi float64) {
	k := len(td.Alpha)
	if k == 0 {
		return 0, 0
	}
	// Gershgorin bounds bracket the spectrum.
	glo, ghi := math.Inf(1), math.Inf(-1)
	for i := 0; i < k; i++ {
		r := 0.0
		if i > 0 {
			r += math.Abs(td.Beta[i-1])
		}
		if i < k-1 {
			r += math.Abs(td.Beta[i])
		}
		if td.Alpha[i]-r < glo {
			glo = td.Alpha[i] - r
		}
		if td.Alpha[i]+r > ghi {
			ghi = td.Alpha[i] + r
		}
	}
	lo = td.bisect(glo, ghi, 1)
	hi = td.bisect(glo, ghi, k)
	return lo, hi
}

// countBelow returns the number of eigenvalues of the tridiagonal that are
// <= x, via the LDL^T ratio recurrence (the number of negative pivots of
// T - xI). Exact-zero pivots are perturbed to a tiny negative, which makes
// an eigenvalue exactly at x count as "below" — the convention bisection
// needs for convergence.
func (td *Tridiagonal) countBelow(x float64) int {
	count := 0
	q := 0.0
	for i := range td.Alpha {
		if i == 0 {
			q = td.Alpha[0] - x
		} else {
			denom := q
			if denom == 0 {
				denom = -1e-300
			}
			q = td.Alpha[i] - x - td.Beta[i-1]*td.Beta[i-1]/denom
		}
		if q <= 0 {
			count++
		}
	}
	return count
}

// bisect finds the idx-th smallest eigenvalue (1-based) within [lo, hi].
func (td *Tridiagonal) bisect(lo, hi float64, idx int) float64 {
	for iter := 0; iter < 200 && hi-lo > 1e-12*(1+math.Abs(lo)+math.Abs(hi)); iter++ {
		mid := (lo + hi) / 2
		if td.countBelow(mid) < idx {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// pencilTopLanczos estimates the largest generalized eigenvalue of the
// pencil (A, B) with k steps of B-inner-product Lanczos on B^+A. Top Ritz
// values converge fast and resist the floating-point contamination that
// plagues the small end of a semi-inner-product Krylov space.
func pencilTopLanczos(a, b Operator, bSolve func(dst, b Vec) error, k int) (float64, error) {
	n := a.Dim()
	tmpApply := NewVec(n)
	tmpInner := NewVec(n)
	var solveErr error
	apply := func(dst, src Vec) {
		a.Apply(tmpApply, src)
		tmpApply.RemoveMean()
		if e := bSolve(dst, tmpApply); e != nil {
			solveErr = e
			dst.Zero()
			return
		}
		dst.RemoveMean()
	}
	binner := func(u, v Vec) float64 {
		b.Apply(tmpInner, v)
		return u.Dot(tmpInner)
	}
	start := deterministicStart(n)
	td, err := Lanczos(n, k, start, apply, binner)
	if err != nil {
		return 0, fmt.Errorf("linalg: pencil Lanczos: %w", err)
	}
	if solveErr != nil {
		return 0, fmt.Errorf("linalg: pencil Lanczos solve: %w", solveErr)
	}
	_, hi := td.EigenRange()
	return hi, nil
}

// PencilBoundsLanczos estimates (lambdaMin, lambdaMax) of the pencil
// (A, B) — the extreme generalized eigenvalues on the mean-free subspace —
// via two top-value Lanczos runs: on B^+A for lambdaMax and on A^+B for
// 1/lambdaMin. Converges in far fewer operator applications than
// PencilBounds' power iterations. Typical k: 30-80.
func PencilBoundsLanczos(a, b Operator, aSolve, bSolve func(dst, b Vec) error, k int) (lamMin, lamMax float64, err error) {
	lamMax, err = pencilTopLanczos(a, b, bSolve, k)
	if err != nil {
		return 0, 0, fmt.Errorf("linalg: pencil lambda_max: %w", err)
	}
	inv, err := pencilTopLanczos(b, a, aSolve, k)
	if err != nil {
		return 0, 0, fmt.Errorf("linalg: pencil lambda_min: %w", err)
	}
	if inv <= 0 {
		return 0, 0, fmt.Errorf("linalg: pencil lambda_min estimate non-positive (%v)", inv)
	}
	return 1 / inv, lamMax, nil
}
