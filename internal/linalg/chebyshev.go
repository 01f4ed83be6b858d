package linalg

import (
	"fmt"
	"math"
)

// PreconCheby implements the preconditioned Chebyshev iteration of
// Theorem 2.2 (Peng's formulation): given symmetric PSD operators A and B
// with A <= B <= kappa*A (in the Loewner order), it approximates A^+ b to
// relative error eps in the A-norm using O(sqrt(kappa) * log(1/eps))
// iterations, each consisting of one matvec with A, one solve with B, and a
// constant number of vector operations.
//
// In the congested-clique accounting of Theorem 1.1, the matvec with A = L_G
// costs O(1) rounds and the B-solve costs zero rounds because the sparsifier
// is globally known; the caller charges those costs per iteration.

// ChebyOptions configures PreconCheby.
type ChebyOptions struct {
	// Kappa is the relative condition number with A <= B <= Kappa*A.
	// Must be >= 1.
	Kappa float64
	// Eps is the target relative error in the A-norm, in (0, 1/2].
	Eps float64
	// MaxIter optionally caps iterations; zero means the theory bound
	// ceil(sqrt(Kappa) * ln(2/Eps)) + 1.
	MaxIter int
	// OnIteration, if non-nil, is invoked once per iteration — the hook the
	// congested-clique driver uses to charge per-iteration round costs.
	OnIteration func()
	// X0, if non-nil, warm-starts the iteration from the given guess instead
	// of zero: the session layer seeds it with the previous solve's
	// potentials, so the polynomial only has to contract the (small)
	// remaining error. X0 is read, never modified. The iteration count is
	// unchanged — warm starting improves the achieved residual, not the
	// worst-case bound — so round accounting is identical either way.
	X0 Vec
	// StagnationWindow, when positive, enables plateau detection on the
	// residual the iteration already maintains: if the relative residual
	// changes by less than 1% per iteration for that many consecutive
	// iterations, PreconCheby stops early with an error unwrapping to
	// ErrStagnated and the iterate built so far. A flat residual means the
	// preconditioner solve is too loose (the iteration is pinned at the
	// inner solver's floor) — escalating is cheaper than finishing the
	// prescribed iteration count. Flatness, not lack of improvement, is
	// the signal: Chebyshev's l2 residual legitimately overshoots its
	// starting value by large factors mid-run (the polynomial's transient
	// hump) before contracting, so a healthy run is far from flat. Zero
	// disables the check (bit-identical to the historical behavior).
	StagnationWindow int
	// StagnationTol, when positive, restricts plateau detection to
	// residuals still above this relative level: a run that has already
	// contracted below the caller's target and merely idles at its
	// floating-point floor is converged, not stuck, and finishes its
	// prescribed iteration count — keeping round accounting identical to a
	// run without the window. Zero treats every flat stretch as stagnation.
	StagnationTol float64
	// Scratch, if non-nil, provides the iteration's work vectors — among
	// them z, the buffer bSolve writes into — so that, given an
	// allocation-free bSolve, an iteration allocates nothing. The returned
	// iterate is still allocated fresh. Results are bit-identical with or
	// without it.
	Scratch *ChebyScratch
}

// ChebyScratch holds PreconCheby's and PreconChebyLanes' work vectors
// across calls. The zero value is ready to use; vectors are (re)allocated on
// first use or on a dimension change. A ChebyScratch must not be shared by
// concurrent iterations.
type ChebyScratch struct {
	r, av, d, z Vec
	x, xf       Vec // PreconChebyLanes' iterate and its frozen lanes
}

// ChebyResult reports a PreconCheby run.
type ChebyResult struct {
	Iterations int
}

// PreconCheby runs the preconditioned Chebyshev iteration. bSolve must
// write an (approximate) solution of B y = r into dst, overwriting it; for
// Laplacian preconditioners it should project out the nullspace. dst and r
// never alias. The returned x approximates A^+ b.
func PreconCheby(a Operator, bSolve func(dst, r Vec) error, b Vec, opts ChebyOptions) (Vec, ChebyResult, error) {
	n := a.Dim()
	if len(b) != n {
		return nil, ChebyResult{}, fmt.Errorf("linalg: rhs length %d for operator dimension %d", len(b), n)
	}
	if opts.Kappa < 1 {
		return nil, ChebyResult{}, fmt.Errorf("linalg: kappa %v < 1", opts.Kappa)
	}
	if opts.Eps <= 0 || opts.Eps > 0.5 {
		return nil, ChebyResult{}, fmt.Errorf("linalg: eps %v outside (0, 1/2]", opts.Eps)
	}

	// The preconditioned operator B^{-1}A has spectrum (on the range) inside
	// [1/kappa, 1].
	lamMin := 1 / opts.Kappa
	lamMax := 1.0
	iters := opts.MaxIter
	if iters == 0 {
		iters = int(math.Ceil(math.Sqrt(opts.Kappa)*math.Log(2/opts.Eps))) + 1
	}

	theta := (lamMax + lamMin) / 2
	delta := (lamMax - lamMin) / 2

	scratch := opts.Scratch
	if scratch == nil {
		scratch = &ChebyScratch{}
	}
	x := NewVec(n)
	r := takeVec(&scratch.r, n)
	copy(r, b)
	av := takeVec(&scratch.av, n)
	z := takeVec(&scratch.z, n)
	if opts.X0 != nil {
		if len(opts.X0) != n {
			return nil, ChebyResult{}, fmt.Errorf("linalg: warm start length %d for operator dimension %d", len(opts.X0), n)
		}
		// Shifted problem: iterate on A y = b - A x0 and accumulate into
		// x = x0 + y. Both branches below only ever touch x and r, so
		// seeding them here is the entire warm start.
		copy(x, opts.X0)
		a.Apply(av, x)
		AXPY(r, -1, av)
	}

	// Plateau detection state; bnorm stays zero when the check is disabled.
	var bnorm float64
	if opts.StagnationWindow > 0 {
		bnorm = b.Norm2()
	}
	prevRes := -1.0
	flat := 0
	stagnated := func(k int) (bool, error) {
		if bnorm == 0 {
			return false, nil
		}
		res := r.Norm2() / bnorm
		if prevRes >= 0 && math.Abs(res-prevRes) <= stagnationImprovement*prevRes {
			flat++
		} else {
			flat = 0
		}
		prevRes = res
		if flat >= opts.StagnationWindow && res > opts.StagnationTol {
			return true, fmt.Errorf("%w: residual flat at %v for %d iterations (above tolerance %v after %d iterations)",
				ErrStagnated, res, flat, opts.StagnationTol, k+1)
		}
		return false, nil
	}

	if delta < 1e-14 {
		// kappa ~ 1: B is (a scalar multiple of) A; Richardson steps suffice.
		for k := 0; k < iters; k++ {
			if opts.OnIteration != nil {
				opts.OnIteration()
			}
			if err := bSolve(z, r); err != nil {
				return nil, ChebyResult{}, err
			}
			Scale(z, 1/theta)
			AXPY(x, 1, z)
			a.Apply(av, x)
			copy(r, b)
			AXPY(r, -1, av)
			if stuck, err := stagnated(k); stuck {
				return x, ChebyResult{Iterations: k + 1}, err
			}
		}
		return x, ChebyResult{Iterations: iters}, nil
	}

	sigma := theta / delta
	rho := 1 / sigma

	if opts.OnIteration != nil {
		opts.OnIteration()
	}
	if err := bSolve(z, r); err != nil {
		return nil, ChebyResult{}, err
	}
	d := takeVec(&scratch.d, n)
	copy(d, z)
	Scale(d, 1/theta)

	count := 1
	for k := 1; k < iters; k++ {
		if opts.OnIteration != nil {
			opts.OnIteration()
		}
		AXPY(x, 1, d)
		a.Apply(av, d)
		AXPY(r, -1, av)
		if stuck, serr := stagnated(k); stuck {
			return x, ChebyResult{Iterations: count}, serr
		}
		if err := bSolve(z, r); err != nil {
			return nil, ChebyResult{}, err
		}
		rhoNext := 1 / (2*sigma - rho)
		cd, cz := rhoNext*rho, 2*rhoNext/delta
		for i := range d {
			d[i] = cd*d[i] + cz*z[i]
		}
		rho = rhoNext
		count++
	}
	AXPY(x, 1, d)
	return x, ChebyResult{Iterations: count}, nil
}

// StagnationWindowFor returns a plateau-detection window matched to the
// Chebyshev method's natural timescale for a given kappa: the residual only
// contracts meaningfully over Theta(sqrt(kappa)) iterations (the slow-start
// transient of the Chebyshev polynomial), so a shorter window would misread
// a legitimately converging run as a plateau.
func StagnationWindowFor(kappa float64) int {
	return int(math.Ceil(2*math.Sqrt(math.Max(kappa, 1)))) + 10
}

// ChebyIterationBound returns the iteration count the theory prescribes for
// a given kappa and eps: O(sqrt(kappa) log(1/eps)). Exposed so experiments
// can compare measured against predicted counts.
func ChebyIterationBound(kappa, eps float64) int {
	return int(math.Ceil(math.Sqrt(kappa)*math.Log(2/eps))) + 1
}
