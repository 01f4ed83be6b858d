package sparsify

import (
	"fmt"
	"math"
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
)

// measureAlphaCG is MeasureAlpha with both pencil solves on Jacobi-
// preconditioned CG to 1e-11, the way it measured before the solves were
// factored: the reference the exact measurement must reproduce.
func measureAlphaCG(g, h *graph.Graph, iters int) (float64, error) {
	lg := linalg.NewLaplacian(g)
	lh := linalg.NewLaplacian(h)
	lamMin, lamMax, err := linalg.PencilBounds(lg, lh, cgSolveTo(lg, 1e-11), cgSolveTo(lh, 1e-11), iters)
	if err != nil {
		return 0, err
	}
	return linalg.EffectiveAlpha(lamMin, lamMax), nil
}

// cgSolveTo is linalg.LaplacianCGSolver in the pencil estimators'
// func(dst, b) shape.
func cgSolveTo(l *linalg.Laplacian, tol float64) func(dst, b linalg.Vec) error {
	cg := linalg.LaplacianCGSolver(l, tol)
	return func(dst, b linalg.Vec) error {
		x, err := cg(b)
		copy(dst, x)
		return err
	}
}

// alphaCases are the pencils the exact alpha measurement is checked on:
// expanders and random graphs across the factor's sizes, a weighted copy,
// and two poorly conditioned meshes.
func alphaCases(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	cases := map[string]*graph.Graph{
		"Path(100)":   graph.Path(100),
		"Grid(16,16)": graph.Grid(16, 16),
	}
	for _, n := range []int{32, 64, 128, 256, 512} {
		rr, err := graph.RandomRegular(n, 6, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		cases[fmt.Sprintf("RandomRegular(%d,6)", n)] = rr
		gnm, err := graph.ConnectedGNM(n, 3*n, int64(n)+1)
		if err != nil {
			t.Fatal(err)
		}
		cases[fmt.Sprintf("ConnectedGNM(%d,%d)", n, 3*n)] = gnm
	}
	cases["weighted-rr6"] = graph.WithRandomWeights(cases["RandomRegular(128,6)"], 256, 7)
	return cases
}

// TestMeasureAlphaFactoredMatchesCG: the factored pencil solves move alpha
// by at most 1e-12 relative against the CG measurement, and never move the
// Chebyshev iteration bound ceil(alpha log(2/eps)) + 1 that mcmf and
// maxflow charge to the ledger from it.
func TestMeasureAlphaFactoredMatchesCG(t *testing.T) {
	const iters = 120
	for name, g := range alphaCases(t) {
		t.Run(name, func(t *testing.T) {
			res, err := Sparsify(g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := MeasureAlpha(g, res.H, iters)
			if err != nil {
				t.Fatal(err)
			}
			want, err := measureAlphaCG(g, res.H, iters)
			if err != nil {
				t.Fatal(err)
			}
			rel := math.Abs(got-want) / want
			t.Logf("alpha %.15g, CG reference %.15g, relative gap %.3g", got, want, rel)
			if rel > 1e-12 {
				t.Fatalf("relative gap %.3g > 1e-12", rel)
			}
			for _, eps := range []float64{1e-4, 1e-8, 1e-10} {
				if a, b := linalg.ChebyIterationBound(got*got, eps), linalg.ChebyIterationBound(want*want, eps); a != b {
					t.Fatalf("eps %g: charged iterations %d, CG reference %d", eps, a, b)
				}
			}
		})
	}
}

// TestLaplacianSolverFallsBackToCG: a graph the factor cannot serve — a
// disconnected one, or one above the cap — gets exactly the CG solver's
// answer.
func TestLaplacianSolverFallsBackToCG(t *testing.T) {
	big, err := graph.ConnectedGNM(linalg.FactorMaxN+1, 3*(linalg.FactorMaxN+1), 11)
	if err != nil {
		t.Fatal(err)
	}
	disconnected := graph.New(40)
	for i := 0; i+1 < 20; i++ {
		disconnected.MustAddEdge(i, i+1, 1)
		disconnected.MustAddEdge(20+i, 21+i, 2)
	}
	if _, err := linalg.LaplacianCholesky(disconnected); err == nil {
		t.Fatal("a disconnected graph factored; the fallback is not exercised")
	}
	for name, g := range map[string]*graph.Graph{"disconnected": disconnected, "cap+1": big} {
		t.Run(name, func(t *testing.T) {
			// A right-hand side with zero sum on every component, so L x = b
			// is solvable and CG converges on both graphs.
			l := linalg.NewLaplacian(g)
			b := linalg.NewVec(g.N())
			for _, comp := range g.Components() {
				var sum float64
				for _, v := range comp {
					b[v] = math.Sin(float64(3*v) + 1)
					sum += b[v]
				}
				for _, v := range comp {
					b[v] -= sum / float64(len(comp))
				}
			}
			got := linalg.NewVec(g.N())
			gotErr := linalg.LaplacianSolver(l, 1e-10)(got, b)
			want, wantErr := linalg.LaplacianCGSolver(l, 1e-10)(b)
			if gotErr != nil || wantErr != nil {
				t.Fatalf("solves failed: %v, CG %v", gotErr, wantErr)
			}
			if len(want) != len(got) {
				t.Fatalf("CG answer has %d entries, want %d", len(want), len(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("x[%d] = %v, CG %v", i, got[i], want[i])
				}
			}
		})
	}
}
