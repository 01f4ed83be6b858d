package lapsolver

import (
	"errors"
	"math/rand"
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

func meanFreeVec(n int, seed int64) linalg.Vec {
	rng := rand.New(rand.NewSource(seed))
	b := linalg.NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	b.RemoveMean()
	return b
}

func TestNewSolverRejectsDisconnected(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	if _, err := NewSolver(g, Options{}); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("error = %v, want ErrDisconnected", err)
	}
}

func TestSolveAgainstDenseOracle(t *testing.T) {
	g, err := graph.RandomRegular(48, 6, 31)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := meanFreeVec(48, 37)
	want, err := linalg.LaplacianPseudoSolve(s.Laplacian().Dense(), b)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.5, 1e-2, 1e-6, 1e-10} {
		x, st, err := s.Solve(b, eps)
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		diff := x.Sub(want)
		rel := s.Laplacian().Norm(diff) / s.Laplacian().Norm(want)
		if rel > eps {
			t.Fatalf("eps=%v: relative L_G error %v (kappa=%v, iters=%d)", eps, rel, st.KappaUsed, st.Iterations)
		}
	}
}

func TestSolveWeightedGraph(t *testing.T) {
	base, err := graph.RandomRegular(40, 6, 41)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.WithRandomWeights(base, 100, 43)
	s, err := NewSolver(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := meanFreeVec(40, 47)
	x, _, err := s.Solve(b, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := linalg.LaplacianPseudoSolve(s.Laplacian().Dense(), b)
	if err != nil {
		t.Fatal(err)
	}
	diff := x.Sub(want)
	if rel := s.Laplacian().Norm(diff) / s.Laplacian().Norm(want); rel > 1e-8 {
		t.Fatalf("relative error %v", rel)
	}
}

func TestSolveZeroRHS(t *testing.T) {
	g := graph.Complete(10)
	s, err := NewSolver(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x, st, err := s.Solve(linalg.NewVec(10), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if x.Norm2() != 0 || st.Iterations != 0 {
		t.Fatalf("zero rhs: x norm %v, iters %d", x.Norm2(), st.Iterations)
	}
}

func TestSolveValidation(t *testing.T) {
	g := graph.Complete(6)
	s, err := NewSolver(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(linalg.NewVec(5), 1e-3); !errors.Is(err, ErrBadRHS) {
		t.Fatalf("bad rhs error = %v", err)
	}
	if _, _, err := s.Solve(linalg.NewVec(6), 0.9); err == nil {
		t.Fatal("eps > 1/2 should error")
	}
	if _, _, err := s.Solve(linalg.NewVec(6), 0); err == nil {
		t.Fatal("eps = 0 should error")
	}
}

func TestSolveRoundsScaleWithLogEps(t *testing.T) {
	// Theorem 1.1: rounds grow like log(1/eps). Squaring the precision must
	// grow the ledger by a bounded factor, not multiplicatively in 1/eps.
	g, err := graph.RandomRegular(64, 8, 53)
	if err != nil {
		t.Fatal(err)
	}
	roundsFor := func(eps float64) int64 {
		led := rounds.New()
		// NoEscalation pins the theory accounting: every attempt runs its
		// full prescribed O(sqrt(kappa) log(1/eps)) iterations. The default
		// mode's stagnation window stops at the floating-point floor, which
		// deliberately flattens exactly the growth this test measures.
		s, err := NewSolver(g, Options{Env: runenv.Env{Ledger: led}, NoEscalation: true})
		if err != nil {
			t.Fatal(err)
		}
		led.Reset() // isolate solve cost from construction cost
		if _, _, err := s.Solve(meanFreeVec(64, 59), eps); err != nil {
			t.Fatal(err)
		}
		return led.Total()
	}
	r3 := roundsFor(1e-3)
	r9 := roundsFor(1e-9)
	if r9 > 5*r3 {
		t.Fatalf("rounds grew from %d (1e-3) to %d (1e-9); want ~3x (log scaling)", r3, r9)
	}
	if r9 <= r3 {
		t.Fatalf("rounds did not grow with precision: %d vs %d", r3, r9)
	}
}

func TestSolverReusableAcrossRHS(t *testing.T) {
	g := graph.Complete(20)
	s, err := NewSolver(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dense := s.Laplacian().Dense()
	for seed := int64(0); seed < 3; seed++ {
		b := meanFreeVec(20, 100+seed)
		x, _, err := s.Solve(b, 1e-8)
		if err != nil {
			t.Fatal(err)
		}
		want, err := linalg.LaplacianPseudoSolve(dense, b)
		if err != nil {
			t.Fatal(err)
		}
		diff := x.Sub(want)
		if rel := s.Laplacian().Norm(diff) / s.Laplacian().Norm(want); rel > 1e-8 {
			t.Fatalf("seed %d: relative error %v", seed, rel)
		}
	}
}

func TestPredictedRoundsShape(t *testing.T) {
	if PredictedRounds(4, 1e-6) <= PredictedRounds(4, 1e-2) {
		t.Fatal("predicted rounds must grow with precision")
	}
}
