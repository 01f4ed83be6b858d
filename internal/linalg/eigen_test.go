package linalg

import (
	"math"
	"testing"

	"lapcc/internal/graph"
)

func TestPowerIterationPathLaplacian(t *testing.T) {
	// The path P_n Laplacian has lambda_max = 2 + 2*cos(pi/n) -> 4.
	n := 50
	l := NewLaplacian(graph.Path(n))
	lam, err := PowerIteration(l, 500)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 + 2*math.Cos(math.Pi/float64(n))
	if math.Abs(lam-want) > 1e-3 {
		t.Fatalf("lambda_max = %v, want %v", lam, want)
	}
}

func TestPowerIterationCompleteGraph(t *testing.T) {
	// K_n Laplacian has all nonzero eigenvalues equal to n.
	n := 12
	l := NewLaplacian(graph.Complete(n))
	lam, err := PowerIteration(l, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lam-float64(n)) > 1e-6 {
		t.Fatalf("lambda_max = %v, want %v", lam, float64(n))
	}
}

func TestPencilBoundsScaledGraph(t *testing.T) {
	// H = c*G gives pencil (L_G, L_H) with all eigenvalues exactly 1/c.
	g, err := graph.ConnectedGNM(15, 30, 22)
	if err != nil {
		t.Fatal(err)
	}
	lg := NewLaplacian(g)
	h := graph.New(g.N())
	const c = 4.0
	for _, e := range g.Edges() {
		h.MustAddEdge(e.U, e.V, c*e.W)
	}
	lh := NewLaplacian(h)
	aSolve := laplacianCGSolveTo(lg, 1e-13)
	bSolve := laplacianCGSolveTo(lh, 1e-13)
	lamMin, lamMax, err := PencilBounds(lg, lh, aSolve, bSolve, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lamMax-1/c) > 1e-6 || math.Abs(lamMin-1/c) > 1e-6 {
		t.Fatalf("pencil bounds [%v, %v], want both 1/%v", lamMin, lamMax, c)
	}
}

func TestPencilBoundsPerturbedSandwich(t *testing.T) {
	// Edge weights perturbed by factor (1 ± p) give pencil eigenvalues in
	// [1/(1+p), 1+p].
	g, err := graph.ConnectedGNM(20, 45, 23)
	if err != nil {
		t.Fatal(err)
	}
	lg := NewLaplacian(graph.WithRandomWeights(g, 5, 24))
	const p = 0.5
	h := graph.New(g.N())
	for i, e := range lg.Graph().Edges() {
		w := e.W
		if i%2 == 0 {
			w *= 1 + p
		} else {
			w /= 1 + p
		}
		h.MustAddEdge(e.U, e.V, w)
	}
	lh := NewLaplacian(h)
	lamMin, lamMax, err := PencilBounds(lg, lh,
		laplacianCGSolveTo(lg, 1e-13), laplacianCGSolveTo(lh, 1e-13), 300)
	if err != nil {
		t.Fatal(err)
	}
	if lamMax > (1+p)*1.001 || lamMin < 1/(1+p)*0.999 {
		t.Fatalf("pencil bounds [%v, %v] escape sandwich [%v, %v]", lamMin, lamMax, 1/(1+p), 1+p)
	}
	alpha := EffectiveAlpha(lamMin, lamMax)
	if alpha < lamMax || alpha < 1/lamMin {
		t.Fatalf("EffectiveAlpha %v does not cover bounds [%v, %v]", alpha, lamMin, lamMax)
	}
}

func TestEffectiveAlphaFloorsAtOne(t *testing.T) {
	if a := EffectiveAlpha(1, 1); a < 1 {
		t.Fatalf("alpha = %v < 1", a)
	}
	if a := EffectiveAlpha(2, 0.9); a < 1 {
		t.Fatalf("alpha = %v < 1", a)
	}
}

func TestPowerIterationEmpty(t *testing.T) {
	d := NewDense(0)
	if _, err := PowerIteration(d, 10); err == nil {
		t.Fatal("empty operator should error")
	}
}

// TestPencilBoundsFactoredAllocations: with LaplacianSolver's factored
// solves, every pencil solve writes into the estimator's own vector, so a
// PencilBounds estimate allocates the same at 20 and at 200 iterations.
func TestPencilBoundsFactoredAllocations(t *testing.T) {
	g, err := graph.RandomRegular(128, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := graph.WithRandomWeights(g, 4, 2)
	lg, lh := NewLaplacian(g), NewLaplacian(h)
	aSolve, bSolve := LaplacianSolver(lg, 1e-11), LaplacianSolver(lh, 1e-11)
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, _, err := PencilBounds(lg, lh, aSolve, bSolve, iters); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a20, a200 := allocs(20), allocs(200); a20 != a200 {
		t.Fatalf("PencilBounds allocates %v times at 20 iterations and %v at 200", a20, a200)
	}
}
