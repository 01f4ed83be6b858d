package linalg

import (
	"math"
	"math/rand"
	"testing"

	"lapcc/internal/graph"
)

func TestSymEigenDiagonal(t *testing.T) {
	d := NewDense(3)
	d.Set(0, 0, 3)
	d.Set(1, 1, 1)
	d.Set(2, 2, 2)
	lams, vecs, err := d.SymEigen()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(lams[i]-want[i]) > 1e-10 {
			t.Fatalf("lams = %v, want %v", lams, want)
		}
	}
	// Eigenvectors must be orthonormal.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var dot float64
			for k := 0; k < 3; k++ {
				dot += vecs.At(k, i) * vecs.At(k, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-10 {
				t.Fatalf("vecs not orthonormal at (%d,%d): %v", i, j, dot)
			}
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	d := NewDense(2)
	d.Set(0, 0, 2)
	d.Set(0, 1, 1)
	d.Set(1, 0, 1)
	d.Set(1, 1, 2)
	lams, _, err := d.SymEigen()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lams[0]-1) > 1e-10 || math.Abs(lams[1]-3) > 1e-10 {
		t.Fatalf("lams = %v, want [1 3]", lams)
	}
}

func TestSymEigenLaplacianSpectrum(t *testing.T) {
	// Complete graph K_n: eigenvalues {0, n, ..., n}.
	n := 10
	lams, _, err := NewLaplacian(graph.Complete(n)).Dense().SymEigen()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lams[0]) > 1e-9 {
		t.Fatalf("smallest = %v, want 0", lams[0])
	}
	for i := 1; i < n; i++ {
		if math.Abs(lams[i]-float64(n)) > 1e-9 {
			t.Fatalf("lams[%d] = %v, want %d", i, lams[i], n)
		}
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	// A = V diag(lams) V^T must reproduce the input.
	rng := rand.New(rand.NewSource(5))
	n := 12
	a := NewDense(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	lams, vecs, err := a.SymEigen()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += vecs.At(i, k) * lams[k] * vecs.At(j, k)
			}
			if math.Abs(s-a.At(i, j)) > 1e-8 {
				t.Fatalf("reconstruction off at (%d,%d): %v vs %v", i, j, s, a.At(i, j))
			}
		}
	}
}

func TestSymEigenRejectsAsymmetric(t *testing.T) {
	d := NewDense(2)
	d.Set(0, 1, 1)
	if _, _, err := d.SymEigen(); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
}

func TestPencilEigenDenseScaledPair(t *testing.T) {
	g, err := graph.ConnectedGNM(14, 30, 9)
	if err != nil {
		t.Fatal(err)
	}
	lg := NewLaplacian(g)
	h := graph.New(g.N())
	for _, e := range g.Edges() {
		h.MustAddEdge(e.U, e.V, 4*e.W)
	}
	lams, err := PencilEigenDense(lg.Dense(), NewLaplacian(h).Dense(), 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	for _, lam := range lams {
		if math.Abs(lam-0.25) > 1e-8 {
			t.Fatalf("pencil eigenvalue %v, want 0.25", lam)
		}
	}
}

// The decisive test: the iterative pencil estimators against the dense
// oracle on the perturbed-sandwich family.
func TestPencilEstimatorsAgainstDenseOracle(t *testing.T) {
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
	exact, err := PencilEigenDense(lg.Dense(), lh.Dense(), 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	exLo, exHi := exact[0], exact[len(exact)-1]

	aSolve := laplacianCGSolveTo(lg, 1e-12)
	bSolve := laplacianCGSolveTo(lh, 1e-12)
	pLo, pHi, err := PencilBounds(lg, lh, aSolve, bSolve, 500)
	if err != nil {
		t.Fatal(err)
	}
	lLo, lHi, err := PencilBoundsLanczos(lg, lh, aSolve, bSolve, 40)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("exact [%v, %v]; power [%v, %v]; lanczos [%v, %v]", exLo, exHi, pLo, pHi, lLo, lHi)
	for name, got := range map[string][2]float64{
		"power":   {pLo, pHi},
		"lanczos": {lLo, lHi},
	} {
		// Estimators approach from inside; they must stay within the exact
		// interval and find most of it.
		if got[0] < exLo-1e-6 || got[1] > exHi+1e-6 {
			t.Fatalf("%s [%v, %v] escapes exact [%v, %v]", name, got[0], got[1], exLo, exHi)
		}
		if got[1] < 0.9*exHi || got[0] > 1.2*exLo {
			t.Fatalf("%s [%v, %v] misses the exact extremes [%v, %v]", name, got[0], got[1], exLo, exHi)
		}
	}
}
