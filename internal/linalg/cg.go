package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence reports that an iterative solver hit its iteration cap
// before reaching the requested tolerance.
var ErrNoConvergence = errors.New("linalg: iterative solver did not converge")

// ErrStagnated reports that an iterative solver's residual plateaued: the
// best residual seen failed to improve meaningfully over a trailing window
// of iterations. Callers distinguish it from ErrNoConvergence because a
// plateau means more iterations will not help — the cure is a better
// preconditioner or an exact solve, not a larger iteration cap.
var ErrStagnated = errors.New("linalg: iterative solver stagnated")

// stagnationImprovement is the minimum relative improvement of the best
// residual that counts as progress for plateau detection: anything below 1%
// per window is treated as noise around a floor.
const stagnationImprovement = 0.01

// CGOptions configures conjugate-gradient solves.
type CGOptions struct {
	// Tol is the relative residual tolerance ||b - Ax|| <= Tol * ||b||.
	// Zero means 1e-12.
	Tol float64
	// MaxIter caps iterations. Zero means 20*n + 200.
	MaxIter int
	// Precond, if non-nil, holds the diagonal of a Jacobi preconditioner;
	// entries must be positive.
	Precond Vec
	// ProjectMean, when true, keeps iterates orthogonal to the all-ones
	// vector — required when A is a connected graph's Laplacian so that CG
	// computes the pseudoinverse action.
	ProjectMean bool
	// X0, if non-nil, warm-starts the iteration from the given guess
	// instead of zero (the session layer seeds it with the previous solve's
	// potentials). X0 is read, never modified. Convergence is still judged
	// by the true relative residual ||b - Ax|| / ||b||, so a warm start can
	// only reduce the iteration count, never the achieved accuracy.
	X0 Vec
	// Scratch, if non-nil, provides reusable internal work vectors, removing
	// the per-call scratch allocations. The solution vector is still
	// allocated fresh — it is handed to the caller. Intended for session
	// layers issuing many solves of one dimension; the arithmetic is
	// unchanged, so results are bit-identical with or without it.
	Scratch *CGScratch
	// StagnationWindow, when positive, enables plateau detection: if the
	// best relative residual fails to improve by at least 1% over that many
	// consecutive iterations, SolveCG aborts with an error unwrapping to
	// ErrStagnated instead of burning the remaining iteration budget. The
	// guarded-recovery ladder in lapsolver uses this to escalate early.
	// Zero disables the check.
	StagnationWindow int
}

// CGScratch holds SolveCG's internal work vectors across calls. The zero
// value is ready to use; vectors are (re)allocated on first use or on a
// dimension change. A CGScratch must not be shared by concurrent solves.
type CGScratch struct {
	rhs, r, z, p, ap Vec
}

// takeVec returns *v resized to n, allocating only when the dimension
// changed: the shared helper behind the solvers' reusable scratch.
func takeVec(v *Vec, n int) Vec {
	if len(*v) != n {
		*v = NewVec(n)
	}
	return *v
}

// CGResult reports how a CG solve went.
type CGResult struct {
	Iterations int
	Residual   float64 // final relative residual
}

// SolveCG solves A x = b for a symmetric positive (semi-)definite operator
// using preconditioned conjugate gradients. For Laplacians, set
// opts.ProjectMean and pass a right-hand side orthogonal to the all-ones
// vector (SolveCG projects b defensively as well).
func SolveCG(a Operator, b Vec, opts CGOptions) (Vec, CGResult, error) {
	n := a.Dim()
	if len(b) != n {
		return nil, CGResult{}, fmt.Errorf("linalg: rhs length %d for operator dimension %d", len(b), n)
	}
	tol := opts.Tol
	if tol == 0 {
		tol = 1e-12
	}
	maxIter := opts.MaxIter
	if maxIter == 0 {
		maxIter = 20*n + 200
	}

	scratch := opts.Scratch
	if scratch == nil {
		scratch = &CGScratch{}
	}

	rhs := takeVec(&scratch.rhs, n)
	copy(rhs, b)
	if opts.ProjectMean {
		RemoveMean(rhs)
	}
	bnorm := rhs.Norm2()
	x := NewVec(n)
	if bnorm == 0 {
		return x, CGResult{}, nil
	}
	if opts.X0 != nil {
		if len(opts.X0) != n {
			return nil, CGResult{}, fmt.Errorf("linalg: warm start length %d for operator dimension %d", len(opts.X0), n)
		}
		copy(x, opts.X0)
		if opts.ProjectMean {
			RemoveMean(x)
		}
	}

	applyPrecond := func(dst, r Vec) {
		if opts.Precond == nil {
			copy(dst, r)
			return
		}
		d, rs, pc := dst[:n], r[:n], opts.Precond[:n]
		for i := range d {
			d[i] = rs[i] / pc[i]
		}
	}

	r := takeVec(&scratch.r, n)
	copy(r, rhs)
	z := takeVec(&scratch.z, n)
	z.Zero()
	if opts.X0 != nil {
		// r = b - A x0; from here the iteration is the standard one.
		a.Apply(z, x)
		AXPY(r, -1, z)
		if opts.ProjectMean {
			RemoveMean(r)
		}
		if res := r.Norm2() / bnorm; res <= tol {
			return x, CGResult{Iterations: 0, Residual: res}, nil
		}
		z.Zero()
	}
	applyPrecond(z, r)
	if opts.ProjectMean {
		RemoveMean(z)
	}
	p := takeVec(&scratch.p, n)
	copy(p, z)
	ap := takeVec(&scratch.ap, n)
	rz := r.Dot(z)

	var res CGResult
	bestRes := math.Inf(1)
	bestIter := 0
	for k := 0; k < maxIter; k++ {
		a.Apply(ap, p)
		pap := p.Dot(ap)
		if pap <= 0 {
			// Numerically singular direction; bail with what we have.
			res.Iterations = k
			res.Residual = r.Norm2() / bnorm
			if res.Residual <= tol {
				return x, res, nil
			}
			return x, res, fmt.Errorf("%w: curvature %v at iteration %d (residual %v)",
				ErrNoConvergence, pap, k, res.Residual)
		}
		alpha := rz / pap
		AXPY(x, alpha, p)
		AXPY(r, -alpha, ap)
		if opts.ProjectMean {
			RemoveMean(r)
		}
		res.Iterations = k + 1
		res.Residual = r.Norm2() / bnorm
		if res.Residual <= tol {
			if opts.ProjectMean {
				RemoveMean(x)
			}
			return x, res, nil
		}
		if opts.StagnationWindow > 0 {
			if res.Residual < bestRes*(1-stagnationImprovement) {
				bestRes = res.Residual
				bestIter = k
			} else if k-bestIter >= opts.StagnationWindow {
				if opts.ProjectMean {
					RemoveMean(x)
				}
				return x, res, fmt.Errorf("%w: residual stuck at %v for %d iterations (best %v at iteration %d)",
					ErrStagnated, res.Residual, k-bestIter, bestRes, bestIter+1)
			}
		}
		applyPrecond(z, r)
		if opts.ProjectMean {
			RemoveMean(z)
		}
		rzNew := r.Dot(z)
		beta := rzNew / rz
		rz = rzNew
		ps, zs := p[:n], z[:n]
		for i := range ps {
			ps[i] = zs[i] + beta*ps[i]
		}
	}
	if opts.ProjectMean {
		RemoveMean(x)
	}
	return x, res, fmt.Errorf("%w: residual %v after %d iterations (tol %v)",
		ErrNoConvergence, res.Residual, res.Iterations, tol)
}

// LaplacianCGSolver returns a high-precision internal solver for a graph
// Laplacian: a closure mapping b to an approximate L^+ b. It uses Jacobi-
// preconditioned CG with mean projection. This models a node solving a
// globally-known sparsifier internally, which costs zero communication
// rounds in the congested clique.
func LaplacianCGSolver(l *Laplacian, tol float64) func(Vec) (Vec, error) {
	precond := l.Degrees().Clone()
	for i := range precond {
		if precond[i] <= 0 {
			precond[i] = 1 // isolated vertex: identity row in the preconditioner
		}
	}
	return func(b Vec) (Vec, error) {
		x, _, err := SolveCG(l, b, CGOptions{Tol: tol, Precond: precond, ProjectMean: true})
		if err != nil {
			return nil, fmt.Errorf("linalg: internal sparsifier solve: %w", err)
		}
		return x, nil
	}
}
