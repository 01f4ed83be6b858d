package linalg

import (
	"math"
	"testing"

	"lapcc/internal/graph"
)

// cgPrecond is PreconCheby's preconditioner callback for c*L^+ through the
// high-precision CG solver: dst = c * L^+ r.
func cgPrecond(l *Laplacian, tol, c float64) func(dst, r Vec) error {
	inner := LaplacianCGSolver(l, tol)
	return func(dst, r Vec) error {
		y, err := inner(r)
		if err != nil {
			return err
		}
		copy(dst, y)
		dst.Scale(c)
		return nil
	}
}

// chebySetup builds a weighted connected graph G, a "sparsifier" H (here: G
// itself with perturbed weights so that the pencil has a known modest
// kappa), and the exact B-solver for alpha*L_H.
func chebySetup(t *testing.T, perturb float64) (lg *Laplacian, bSolve func(dst, r Vec) error, kappa float64) {
	t.Helper()
	g, err := graph.ConnectedGNM(20, 50, 16)
	if err != nil {
		t.Fatal(err)
	}
	wg := graph.WithRandomWeights(g, 6, 17)
	lg = NewLaplacian(wg)

	h := graph.New(wg.N())
	for i, e := range wg.Edges() {
		w := e.W
		if i%2 == 0 {
			w *= 1 + perturb
		} else {
			w /= 1 + perturb
		}
		h.MustAddEdge(e.U, e.V, w)
	}
	// Edge-wise sandwich: L_G/(1+perturb) <= L_H <= (1+perturb) L_G,
	// i.e. with alpha = 1+perturb: (1/alpha) L_H <= L_G <= alpha L_H.
	alpha := 1 + perturb
	// Theorem 2.2 setup from Corollary 2.3: A = L_G, B = alpha*L_H,
	// kappa = alpha^2... actually the corollary uses kappa = alpha with
	// B = alpha L_H since L_G <= alpha L_H <= alpha^2 L_G.
	// (alpha*L_H)^+ = (1/alpha) L_H^+.
	return lg, cgPrecond(NewLaplacian(h), 1e-13, 1/alpha), alpha * alpha
}

func TestPreconChebyConvergesToTolerance(t *testing.T) {
	lg, bSolve, kappa := chebySetup(t, 0.5)
	b := meanFreeRandomVec(lg.Dim(), 18)
	want, err := LaplacianPseudoSolve(lg.Dense(), b)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.5, 1e-2, 1e-6, 1e-10} {
		x, res, err := PreconCheby(lg, bSolve, b, ChebyOptions{Kappa: kappa, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		diff := x.Sub(want)
		rel := lg.Norm(diff) / lg.Norm(want)
		if rel > eps {
			t.Fatalf("eps=%v: relative L_G-norm error %v after %d iterations", eps, rel, res.Iterations)
		}
	}
}

func TestPreconChebyIterationCountScaling(t *testing.T) {
	lg, bSolve, kappa := chebySetup(t, 0.5)
	b := meanFreeRandomVec(lg.Dim(), 19)
	var counts []int
	for _, eps := range []float64{1e-2, 1e-4, 1e-8} {
		_, res, err := PreconCheby(lg, bSolve, b, ChebyOptions{Kappa: kappa, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Iterations)
		if res.Iterations > ChebyIterationBound(kappa, eps) {
			t.Fatalf("iterations %d exceed theory bound %d", res.Iterations, ChebyIterationBound(kappa, eps))
		}
	}
	// Iterations must grow roughly linearly in log(1/eps): halving eps^2
	// should not multiply iterations by more than ~3.
	if counts[2] > 6*counts[0] {
		t.Fatalf("iteration growth too steep: %v", counts)
	}
}

func TestPreconChebyKappaOne(t *testing.T) {
	// B = A exactly: kappa = 1 takes the Richardson fast path.
	g := graph.Path(10)
	lg := NewLaplacian(g)
	bSolve := cgPrecond(lg, 1e-13, 1)
	b := meanFreeRandomVec(10, 20)
	x, _, err := PreconCheby(lg, bSolve, b, ChebyOptions{Kappa: 1, Eps: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	want, err := LaplacianPseudoSolve(lg.Dense(), b)
	if err != nil {
		t.Fatal(err)
	}
	diff := x.Sub(want)
	if rel := lg.Norm(diff) / lg.Norm(want); rel > 1e-8 {
		t.Fatalf("kappa=1 error %v", rel)
	}
}

func TestPreconChebyOnIterationHook(t *testing.T) {
	lg, bSolve, kappa := chebySetup(t, 0.3)
	b := meanFreeRandomVec(lg.Dim(), 21)
	var hooks int
	_, res, err := PreconCheby(lg, bSolve, b, ChebyOptions{
		Kappa:       kappa,
		Eps:         1e-4,
		OnIteration: func() { hooks++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if hooks != res.Iterations {
		t.Fatalf("hook fired %d times for %d iterations", hooks, res.Iterations)
	}
}

func TestPreconChebyParameterValidation(t *testing.T) {
	lg := NewLaplacian(graph.Path(4))
	bSolve := cgPrecond(lg, 1e-12, 1)
	b := NewVec(4)
	if _, _, err := PreconCheby(lg, bSolve, b, ChebyOptions{Kappa: 0.5, Eps: 0.1}); err == nil {
		t.Fatal("kappa < 1 should error")
	}
	if _, _, err := PreconCheby(lg, bSolve, b, ChebyOptions{Kappa: 2, Eps: 0.9}); err == nil {
		t.Fatal("eps > 1/2 should error")
	}
	if _, _, err := PreconCheby(lg, bSolve, NewVec(3), ChebyOptions{Kappa: 2, Eps: 0.1}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

func TestChebyIterationBoundMonotone(t *testing.T) {
	if ChebyIterationBound(4, 1e-4) < ChebyIterationBound(4, 1e-2) {
		t.Fatal("bound should grow as eps shrinks")
	}
	if ChebyIterationBound(16, 1e-4) < ChebyIterationBound(4, 1e-4) {
		t.Fatal("bound should grow with kappa")
	}
	ratio := float64(ChebyIterationBound(100, 1e-6)) / float64(ChebyIterationBound(1, 1e-6))
	if ratio < 5 || ratio > 20 {
		t.Fatalf("sqrt(kappa) scaling off: ratio %v for kappa 100 vs 1", ratio)
	}
	_ = math.Sqrt // keep math import if constants change
}
