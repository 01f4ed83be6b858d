package lapsolver

import (
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

func TestRandomizedSolverCorrect(t *testing.T) {
	g, err := graph.RandomRegular(64, 8, 61)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(g, Options{Randomized: true, RandomSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b := meanFreeVec(64, 63)
	x, st, err := s.Solve(b, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := linalg.LaplacianPseudoSolve(s.Laplacian().Dense(), b)
	if err != nil {
		t.Fatal(err)
	}
	diff := x.Sub(want)
	if rel := s.Laplacian().Norm(diff) / s.Laplacian().Norm(want); rel > 1e-8 {
		t.Fatalf("relative error %v (kappa=%v)", rel, st.KappaUsed)
	}
}

func TestRandomizedSolverFewerIterations(t *testing.T) {
	// The randomized sparsifier's tighter alpha must pay off in Chebyshev
	// iterations (the sqrt(kappa) factor of Corollary 2.3).
	g, err := graph.RandomRegular(128, 8, 71)
	if err != nil {
		t.Fatal(err)
	}
	b := meanFreeVec(128, 73)

	// NoEscalation pins the prescribed iteration counts; the default mode's
	// stagnation window truncates both runs at the floating-point floor,
	// hiding the sqrt(kappa) gap this test measures.
	det, err := NewSolver(g, Options{NoEscalation: true})
	if err != nil {
		t.Fatal(err)
	}
	_, detStats, err := det.Solve(b, 1e-8)
	if err != nil {
		t.Fatal(err)
	}

	rnd, err := NewSolver(g, Options{Randomized: true, RandomSeed: 7, NoEscalation: true})
	if err != nil {
		t.Fatal(err)
	}
	_, rndStats, err := rnd.Solve(b, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("iterations: deterministic=%d randomized=%d", detStats.Iterations, rndStats.Iterations)
	if rndStats.Iterations > detStats.Iterations {
		t.Fatalf("randomized sparsifier gave more iterations (%d) than deterministic (%d)",
			rndStats.Iterations, detStats.Iterations)
	}
}

func TestRandomizedSolverChargesFV22(t *testing.T) {
	g, err := graph.RandomRegular(64, 8, 81)
	if err != nil {
		t.Fatal(err)
	}
	led := rounds.New()
	if _, err := NewSolver(g, Options{Randomized: true, RandomSeed: 1, Env: runenv.Env{Ledger: led}}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range led.Entries() {
		if e.Tag == "sparsify-randomized" {
			found = true
		}
		if e.Tag == "sparsify-decomp" {
			t.Fatal("randomized mode charged deterministic decomposition rounds")
		}
	}
	if !found {
		t.Fatal("randomized sparsifier charge missing")
	}
}

// TestRandomizedReweightCountsRebuilds: every randomized rebuild — the one
// NewSolver runs and one per Reweight — reaches the registry, so a solver
// reweighted twice reads three builds.
func TestRandomizedReweightCountsRebuilds(t *testing.T) {
	g, err := graph.RandomRegular(32, 6, 91)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	s, err := NewSolver(g, Options{Randomized: true, RandomSeed: 3, Env: runenv.Env{Ledger: rounds.New(), Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, g.M())
	for k := 1; k <= 2; k++ {
		for i := range w {
			w[i] = float64(k + i%3)
		}
		if err := s.Reweight(w); err != nil {
			t.Fatal(err)
		}
	}
	builds := reg.Counter("lapcc_sparsify_random_builds_total", "Randomized sparsifier builds.").Value()
	if builds != 3 {
		t.Fatalf("lapcc_sparsify_random_builds_total = %d after a build and two reweights, want 3", builds)
	}
}
