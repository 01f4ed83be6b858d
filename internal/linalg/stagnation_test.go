package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lapcc/internal/graph"
)

func stagnationTestLaplacian(t *testing.T, n int, seed int64) *Laplacian {
	t.Helper()
	g, err := graph.ConnectedGNM(n, 3*n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return NewLaplacian(graph.WithRandomWeights(g, 10, seed+1))
}

// quantizedOp wraps an operator with a fixed-point Apply: results are
// rounded to a grid of the given step. The rounding noise caps the residual
// any Krylov method can reach, giving a deterministic plateau for the
// stagnation detector to find.
type quantizedOp struct {
	op   Operator
	step float64
}

func (q quantizedOp) Dim() int { return q.op.Dim() }

func (q quantizedOp) Apply(dst, src Vec) {
	q.op.Apply(dst, src)
	for i := range dst {
		dst[i] = math.Round(dst[i]/q.step) * q.step
	}
}

// TestSolveCGStagnationDetected: a noise floor in the operator makes the
// residual plateau far above the requested tolerance; with a window set, CG
// must return ErrStagnated promptly instead of spinning to MaxIter.
func TestSolveCGStagnationDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 40
	l := stagnationTestLaplacian(t, n, 7)
	b := NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	b.RemoveMean()
	const maxIter = 100000
	x, res, err := SolveCG(quantizedOp{op: l, step: 1e-7}, b, CGOptions{
		Tol:              1e-12, // below the quantization floor
		MaxIter:          maxIter,
		ProjectMean:      true,
		StagnationWindow: 25,
	})
	if !errors.Is(err, ErrStagnated) {
		t.Fatalf("want ErrStagnated, got %v (res %+v)", err, res)
	}
	if res.Iterations >= maxIter {
		t.Fatal("stagnation detection did not cut the iteration count")
	}
	// The iterate handed back is still the converged-to-floor solution.
	if x == nil || res.Residual > 1e-4 {
		t.Fatalf("plateau iterate unusable: residual %v", res.Residual)
	}
}

// TestSolveCGStagnationDisabledByDefault: without a window the historical
// contract holds — the cap is exhausted and ErrNoConvergence is returned.
func TestSolveCGStagnationDisabledByDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 24
	l := stagnationTestLaplacian(t, n, 7)
	b := NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	b.RemoveMean()
	_, res, err := SolveCG(quantizedOp{op: l, step: 1e-7}, b, CGOptions{
		Tol: 1e-12, MaxIter: 300, ProjectMean: true,
	})
	if errors.Is(err, ErrStagnated) {
		t.Fatal("stagnation tripped with a zero window")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence at the cap, got %v", err)
	}
	if res.Iterations != 300 {
		t.Fatalf("iterations %d, want the full cap 300", res.Iterations)
	}
}

// TestPreconChebyStagnationDetected: the preconditioner solve's own
// tolerance floors the achievable residual, so a generously padded MaxIter
// plateaus; the window must stop the burn with the floored iterate intact.
func TestPreconChebyStagnationDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 30
	l := stagnationTestLaplacian(t, n, 7)
	b := NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	b.RemoveMean()
	exact := cgPrecond(l, 1e-13, 1)
	iters := 0
	const maxIter = 5000
	x, res, err := PreconCheby(l, exact, b, ChebyOptions{
		Kappa:            4,
		Eps:              1e-6,
		MaxIter:          maxIter, // far past convergence to the floor
		OnIteration:      func() { iters++ },
		StagnationWindow: 15,
	})
	if !errors.Is(err, ErrStagnated) {
		t.Fatalf("want ErrStagnated, got %v after %d iterations", err, iters)
	}
	if res.Iterations >= maxIter {
		t.Fatalf("ran all %d padded iterations — detection is useless", res.Iterations)
	}
	// The returned iterate is already an excellent solution.
	av := NewVec(n)
	l.Apply(av, x)
	av.AXPY(-1, b)
	if rel := av.Norm2() / b.Norm2(); rel > 1e-6 {
		t.Fatalf("stagnated iterate residual %v, want converged", rel)
	}
}

// TestPreconChebyStagnationWindowScalesWithKappa: a window sized to the
// method's natural sqrt(kappa) timescale must NOT fire on a legitimately
// (slowly) converging run.
func TestPreconChebyStagnationWindowScalesWithKappa(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 30
	l := stagnationTestLaplacian(t, n, 9)
	b := NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	b.RemoveMean()
	exact := cgPrecond(l, 1e-13, 1)
	kappa := 100.0
	window := StagnationWindowFor(kappa)
	x, _, err := PreconCheby(l, exact, b, ChebyOptions{
		Kappa:            kappa,
		Eps:              1e-8,
		StagnationWindow: window,
	})
	if err != nil {
		t.Fatalf("kappa-scaled window %d fired on a converging run: %v", window, err)
	}
	av := NewVec(n)
	l.Apply(av, x)
	av.AXPY(-1, b)
	if rel := av.Norm2() / b.Norm2(); rel > 1e-6 {
		t.Fatalf("residual %v after full run", rel)
	}
}
