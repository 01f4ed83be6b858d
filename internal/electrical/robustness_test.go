package electrical

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"lapcc/internal/linalg"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

// TestSessionBudgetExhaustion: an exhausted wall budget must abort
// Potentials with the typed error before any solve work happens.
func TestSessionBudgetExhaustion(t *testing.T) {
	g := sessionTestGraph(t, 16, 31)
	budget := rounds.NewBudget(0, time.Nanosecond).Bind(nil)
	time.Sleep(time.Millisecond)
	s, err := NewSession(g, SessionOptions{Env: runenv.Env{Budget: budget}})
	if err != nil {
		t.Fatal(err)
	}
	b := linalg.NewVec(16)
	b[0], b[15] = 1, -1
	_, err = s.Potentials(b, 1e-8, "x")
	if !errors.Is(err, rounds.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if s.Stats().Solves != 0 {
		t.Fatal("solve ran past an exhausted budget")
	}
}

// TestSessionDenseFallbackRescues: conductances spanning twenty-four orders
// of magnitude break CG (negative curvature from rounding); the
// session must hand the solve to the exact dense path instead of failing.
func TestSessionDenseFallbackRescues(t *testing.T) {
	g := sessionTestGraph(t, 24, 33)
	s, err := NewSession(g, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	w := make([]float64, g.M())
	for i := range w {
		if rng.Intn(2) == 0 {
			w[i] = 1e-12 * (1 + rng.Float64())
		} else {
			w[i] = 1e12 * (1 + rng.Float64())
		}
	}
	if err := s.Reweight(w); err != nil {
		t.Fatal(err)
	}
	b := linalg.NewVec(24)
	b[0], b[23] = 1, -1
	x, err := s.Potentials(b, 1e-14, "x")
	if err != nil {
		t.Fatalf("fallback did not rescue the solve: %v", err)
	}
	if s.Stats().DenseFallbacks != 1 {
		t.Fatalf("DenseFallbacks = %d, want 1", s.Stats().DenseFallbacks)
	}
	// The fallback result matches the reference dense solve bit for bit.
	want, err := linalg.LaplacianPseudoSolve(s.Laplacian().Dense(), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("fallback diverges from reference at %d", i)
		}
	}
}

// TestSessionNoFallbackPinsHistoricalFailure: with NoFallback the same
// doomed solve must surface the iterative error.
func TestSessionNoFallbackPinsHistoricalFailure(t *testing.T) {
	g := sessionTestGraph(t, 24, 33)
	s, err := NewSession(g, SessionOptions{NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	w := make([]float64, g.M())
	for i := range w {
		if rng.Intn(2) == 0 {
			w[i] = 1e-12 * (1 + rng.Float64())
		} else {
			w[i] = 1e12 * (1 + rng.Float64())
		}
	}
	if err := s.Reweight(w); err != nil {
		t.Fatal(err)
	}
	b := linalg.NewVec(24)
	b[0], b[23] = 1, -1
	if _, err := s.Potentials(b, 1e-14, "x"); err == nil {
		t.Fatal("NoFallback solve succeeded where CG cannot")
	}
}
