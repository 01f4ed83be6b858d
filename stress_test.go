package lapcc_test

// Larger-scale stress runs, skipped under -short: these push each pipeline
// an order of magnitude past the unit tests to catch scaling bugs
// (quadratic blowups, ledger overflow, batching edge cases).

import (
	"testing"

	"lapcc/internal/euler"
	"lapcc/internal/graph"
	"lapcc/internal/lapsolver"
	"lapcc/internal/linalg"
	"lapcc/internal/maxflow"
	"lapcc/internal/mcmf"
	"lapcc/internal/rounds"
)

func TestStressEulerianLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	g, err := graph.RandomEulerian(4096, 300, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	led := rounds.New()
	orient, st, err := euler.Orient(g, nil, euler.Options{Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	if v := euler.CheckOrientation(g, orient); v != -1 {
		t.Fatalf("unbalanced at %d", v)
	}
	t.Logf("n=4096 m=%d: %d iterations, %d rounds", g.M(), st.Iterations, led.Total())
	// O(log n log* n): any blowup past ~1000 rounds signals a regression.
	if led.Total() > 1500 {
		t.Fatalf("rounds %d far above the log n log* n envelope", led.Total())
	}
}

func TestStressSolverLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	g, err := graph.RandomRegular(1024, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lapsolver.NewSolver(g, lapsolver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := linalg.NewVec(1024)
	b[0], b[1023] = 1, -1
	x, st, err := s.Solve(b, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	l := s.Laplacian()
	lx := linalg.NewVec(1024)
	l.Apply(lx, x)
	if r := lx.Sub(b).Norm2(); r > 1e-6 {
		t.Fatalf("residual %v", r)
	}
	t.Logf("n=1024: %d chebyshev iterations, kappa %v", st.Iterations, st.KappaUsed)
}

func TestStressMaxFlowWide(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	dg := graph.LayeredDAG(4, 10, 3, 32, 3)
	s, tt := 0, dg.N()-1
	want, _, err := maxflow.Dinic(dg, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := maxflow.MaxFlow(dg, s, tt, maxflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want {
		t.Fatalf("value %d != %d", res.Value, want)
	}
	t.Logf("n=%d m=%d F*=%d: %d IPM iterations, %d final augs",
		dg.N(), dg.M(), want, res.IPMIterations, res.FinalAugmentations)
	if res.FinalAugmentations > 3 {
		t.Fatalf("%d final augmentations; IPM quality regressed", res.FinalAugmentations)
	}
}

func TestStressMinCostFlowWide(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// 16x16 assignment with degree 4.
	rng := newBenchRng(9)
	const side = 16
	dg := graph.NewDi(2 * side)
	sigma := make([]int64, 2*side)
	for u := 0; u < side; u++ {
		partner := u % side
		dg.MustAddArc(u, side+partner, 1, 1+rng.Int63n(64))
		for d := 1; d < 4; d++ {
			dg.MustAddArc(u, side+rng.Intn(side), 1, 1+rng.Int63n(64))
		}
		sigma[u] = 1
		sigma[side+partner]--
	}
	_, want, err := mcmf.Solve(dg, sigma)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mcmf.MinCostFlow(dg, sigma, mcmf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != want {
		t.Fatalf("cost %d != %d", res.Cost, want)
	}
	t.Logf("m=%d: %d progress iterations, %d repairs, %d cancels",
		dg.M(), res.ProgressIterations, res.RepairAugmentations, res.CyclesCancelled)
}
