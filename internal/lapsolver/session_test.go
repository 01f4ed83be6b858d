package lapsolver

import (
	"math/rand"
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/rounds"
)

// residualCheck verifies x solves L_g x = b to the given relative 2-norm
// residual — the solver's own certificate is in the preconditioner norm, so
// a loose 2-norm check is the right external validation.
func residualCheck(t *testing.T, g *graph.Graph, x, b linalg.Vec, bound float64) {
	t.Helper()
	l := linalg.NewLaplacian(g)
	r := b.Clone()
	av := linalg.NewVec(g.N())
	l.Apply(av, x)
	r.AXPY(-1, av)
	r.RemoveMean()
	if res := r.Norm2() / b.Norm2(); res > bound {
		t.Fatalf("relative residual %g > %g", res, bound)
	}
}

// Reweight must make the solver answer for the *new* weights: the solution
// after a reweight solves the reweighted system, and matches a from-scratch
// solver on the same weights to solver precision.
func TestSolverReweightSolvesNewSystem(t *testing.T) {
	g, err := graph.RandomRegular(64, 8, 21)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := linalg.NewVec(g.N())
	b[0] = 1
	b[63] = -1
	const eps = 1e-8

	rng := rand.New(rand.NewSource(22))
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1 + rng.Float64() // stays within class 0: chain reuses exactly
	}
	factor := s.hf
	if err := s.Reweight(w); err != nil {
		t.Fatal(err)
	}
	if factor == nil || s.hf != factor {
		t.Fatal("an exact-reuse reweight re-factored the unchanged sparsifier")
	}
	x, _, err := s.Solve(b, eps)
	if err != nil {
		t.Fatal(err)
	}

	fresh := g.Clone()
	for i := range w {
		if err := fresh.SetWeight(i, w[i]); err != nil {
			t.Fatal(err)
		}
	}
	residualCheck(t, fresh, x, b, 1e-4)

	st := s.ChainStats()
	if st.Reweights != 1 || st.ExactReuses != 1 {
		t.Fatalf("chain stats = %+v, want one exact reuse", st)
	}
}

// A reweighted solve must charge exactly the rounds a fresh build-and-solve
// charges: reuse buys wall clock, not charged rounds.
func TestSolverReweightChargedParity(t *testing.T) {
	g, err := graph.RandomRegular(64, 8, 23)
	if err != nil {
		t.Fatal(err)
	}
	b := linalg.NewVec(g.N())
	b[1] = 1
	b[40] = -1
	const eps = 1e-6

	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1.75
	}

	sessLed := rounds.New()
	s, err := NewSolver(g, Options{Ledger: sessLed})
	if err != nil {
		t.Fatal(err)
	}
	preCharged := sessLed.TotalOf(rounds.Charged)
	if err := s.Reweight(w); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(b, eps); err != nil {
		t.Fatal(err)
	}
	sessCharged := sessLed.TotalOf(rounds.Charged) - preCharged

	freshLed := rounds.New()
	fresh := g.Clone()
	for i := range w {
		if err := fresh.SetWeight(i, w[i]); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := NewSolver(fresh, Options{Ledger: freshLed})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Solve(b, eps); err != nil {
		t.Fatal(err)
	}
	if freshCharged := freshLed.TotalOf(rounds.Charged); sessCharged != freshCharged {
		t.Fatalf("reweighted path charged %d rounds, fresh build-and-solve charges %d", sessCharged, freshCharged)
	}
}

// Warm-started repeat solves stay correct and do not take more Chebyshev
// iterations than the first (cold) solve of the same right-hand side.
func TestSolverWarmStartRepeatSolves(t *testing.T) {
	g, err := graph.RandomRegular(64, 8, 24)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(g, Options{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	b := linalg.NewVec(g.N())
	b[2] = 1
	b[50] = -1
	const eps = 1e-8

	_, first, err := s.Solve(b, eps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		x, st, err := s.Solve(b, eps)
		if err != nil {
			t.Fatal(err)
		}
		residualCheck(t, s.Graph(), x, b, 1e-4)
		if st.Iterations > first.Iterations {
			t.Fatalf("repeat solve %d took %d iterations, first took %d", i, st.Iterations, first.Iterations)
		}
		if st.Attempts > first.Attempts {
			t.Fatalf("repeat solve %d escalated kappa %d times, first %d", i, st.Attempts, first.Attempts)
		}
	}
}

func TestSolverReweightLengthMismatch(t *testing.T) {
	g, err := graph.RandomRegular(32, 4, 25)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reweight(make([]float64, 5)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
