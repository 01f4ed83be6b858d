package linalg

import (
	"fmt"
	"math"
)

// Eigenvalue estimation for measuring the effective approximation factor
// alpha of a sparsifier chain: if 1/alpha * L_H <= L_G <= alpha * L_H, then
// the generalized eigenvalues of the pencil (L_G, L_H) lie in
// [1/alpha, alpha]. The experiments measure lambda_max(L_H^+ L_G) and
// lambda_min via power iteration, which is internal computation (zero
// rounds) used only for reporting.

// deterministicStart fills a reproducible, non-degenerate start vector. A
// fixed quasi-random vector keeps the whole pipeline deterministic, matching
// the paper's setting.
func deterministicStart(n int) Vec {
	v := NewVec(n)
	for i := range v {
		v[i] = math.Sin(float64(i)*1.61803398875 + 0.5)
	}
	v.RemoveMean()
	if v.Norm2() == 0 {
		for i := range v {
			v[i] = float64(i%2)*2 - 1
		}
		v.RemoveMean()
	}
	return v
}

// PowerIteration estimates the largest eigenvalue of op restricted to the
// complement of the all-ones vector (the relevant space for Laplacians).
// It returns the Rayleigh-quotient estimate after iters steps.
func PowerIteration(op Operator, iters int) (float64, error) {
	n := op.Dim()
	if n == 0 {
		return 0, fmt.Errorf("linalg: power iteration on empty operator")
	}
	v := deterministicStart(n)
	w := NewVec(n)
	var lam float64
	for k := 0; k < iters; k++ {
		op.Apply(w, v)
		w.RemoveMean()
		nw := w.Norm2()
		if nw == 0 {
			return 0, nil
		}
		lam = v.Dot(w) / v.Dot(v)
		w.Scale(1 / nw)
		v, w = w, v
	}
	return lam, nil
}

// pencilOp applies x -> B^+ (A x) via the supplied B-solver.
type pencilOp struct {
	a      Operator
	bSolve func(dst, b Vec) error
	err    error
	tmp    Vec
}

func (p *pencilOp) Dim() int { return p.a.Dim() }

func (p *pencilOp) Apply(dst, src Vec) {
	p.a.Apply(p.tmp, src)
	if err := p.bSolve(dst, p.tmp); err != nil {
		p.err = err
		dst.Zero()
	}
}

// PencilMaxEig estimates lambda_max of the pencil (A, B): the largest lambda
// with A x = lambda B x on the complement of the nullspace. bSolve must
// set dst = B^+ b.
func PencilMaxEig(a Operator, bSolve func(dst, b Vec) error, iters int) (float64, error) {
	p := &pencilOp{a: a, bSolve: bSolve, tmp: NewVec(a.Dim())}
	lam, err := PowerIteration(p, iters)
	if err != nil {
		return 0, err
	}
	if p.err != nil {
		return 0, p.err
	}
	return lam, nil
}

// PencilBounds estimates (lambdaMin, lambdaMax) of the pencil (A, B) via
// power iteration on B^+A and on A^+B (whose top eigenvalue is
// 1/lambdaMin). aSolve and bSolve must apply the respective pseudoinverses
// into their dst (LaplacianSolver); with allocation-free solves, the
// estimate allocates the same at any iteration count.
func PencilBounds(a, b Operator, aSolve, bSolve func(dst, b Vec) error, iters int) (lamMin, lamMax float64, err error) {
	lamMax, err = PencilMaxEig(a, bSolve, iters)
	if err != nil {
		return 0, 0, fmt.Errorf("linalg: pencil lambda_max: %w", err)
	}
	inv, err := PencilMaxEig(b, aSolve, iters)
	if err != nil {
		return 0, 0, fmt.Errorf("linalg: pencil lambda_min: %w", err)
	}
	if inv <= 0 {
		return 0, 0, fmt.Errorf("linalg: pencil lambda_min estimate non-positive (%v)", inv)
	}
	return 1 / inv, lamMax, nil
}

// EffectiveAlpha returns the smallest alpha >= 1 such that the measured
// pencil bounds certify (1/alpha) B <= A <= alpha B, i.e.
// alpha = max(lamMax, 1/lamMin). A small safety margin covers power-
// iteration underestimation.
func EffectiveAlpha(lamMin, lamMax float64) float64 {
	alpha := lamMax
	if lamMin > 0 && 1/lamMin > alpha {
		alpha = 1 / lamMin
	}
	if alpha < 1 {
		alpha = 1
	}
	return 1.05 * alpha
}
