package linalg

import (
	"math"
	"testing"

	"lapcc/internal/graph"
)

func TestTridiagonalEigenRangeKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	td := &Tridiagonal{Alpha: []float64{2, 2}, Beta: []float64{1}}
	lo, hi := td.EigenRange()
	if math.Abs(lo-1) > 1e-9 || math.Abs(hi-3) > 1e-9 {
		t.Fatalf("range [%v, %v], want [1, 3]", lo, hi)
	}
}

func TestTridiagonalSingleEntry(t *testing.T) {
	td := &Tridiagonal{Alpha: []float64{5}}
	lo, hi := td.EigenRange()
	if math.Abs(lo-5) > 1e-9 || math.Abs(hi-5) > 1e-9 {
		t.Fatalf("range [%v, %v], want [5, 5]", lo, hi)
	}
}

func TestTridiagonalLaplacianChain(t *testing.T) {
	// The path Laplacian is itself tridiagonal; P4 eigenvalues are
	// 2 - 2cos(k pi / 4), k = 0..3: {0, 0.586, 2, 3.414}.
	td := &Tridiagonal{Alpha: []float64{1, 2, 2, 1}, Beta: []float64{-1, -1, -1}}
	lo, hi := td.EigenRange()
	if math.Abs(lo-0) > 1e-9 {
		t.Fatalf("lo = %v, want 0", lo)
	}
	want := 2 + math.Sqrt2
	if math.Abs(hi-want) > 1e-9 {
		t.Fatalf("hi = %v, want %v", hi, want)
	}
}

func TestLanczosOnLaplacian(t *testing.T) {
	// Euclidean Lanczos on K_n's Laplacian: nonzero eigenvalues all n.
	n := 16
	l := NewLaplacian(graph.Complete(n))
	apply := func(dst, src Vec) {
		l.Apply(dst, src)
		dst.RemoveMean()
	}
	inner := func(u, v Vec) float64 { return u.Dot(v) }
	start := deterministicStart(n)
	td, err := Lanczos(n, 12, start, apply, inner)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := td.EigenRange()
	if math.Abs(hi-float64(n)) > 1e-6 || math.Abs(lo-float64(n)) > 1e-6 {
		t.Fatalf("K%d restricted spectrum [%v, %v], want [%d, %d]", n, lo, hi, n, n)
	}
}

func TestPencilBoundsLanczosScaled(t *testing.T) {
	// H = c*G: pencil spectrum is exactly {1/c}.
	g, err := graph.ConnectedGNM(20, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	lg := NewLaplacian(g)
	h := graph.New(g.N())
	const c = 3.0
	for _, e := range g.Edges() {
		h.MustAddEdge(e.U, e.V, c*e.W)
	}
	lh := NewLaplacian(h)
	lo, hi, err := PencilBoundsLanczos(lg, lh, laplacianCGSolveTo(lg, 1e-12), laplacianCGSolveTo(lh, 1e-12), 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-1/c) > 1e-6 || math.Abs(hi-1/c) > 1e-6 {
		t.Fatalf("pencil range [%v, %v], want 1/%v", lo, hi, c)
	}
}

func TestPencilBoundsLanczosMatchesPowerIteration(t *testing.T) {
	g, err := graph.ConnectedGNM(24, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	lg := NewLaplacian(graph.WithRandomWeights(g, 5, 8))
	const p = 0.7
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
	aSolve := laplacianCGSolveTo(lg, 1e-12)
	bSolve := laplacianCGSolveTo(lh, 1e-12)

	pLo, pHi, err := PencilBounds(lg, lh, aSolve, bSolve, 400)
	if err != nil {
		t.Fatal(err)
	}
	lLo, lHi, err := PencilBoundsLanczos(lg, lh, aSolve, bSolve, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Lanczos must agree with (or beat) power iteration; both approach the
	// spectrum from inside.
	if lHi < pHi-1e-3 || lLo > pLo+1e-3 {
		t.Fatalf("Lanczos [%v,%v] narrower than power iteration [%v,%v]", lLo, lHi, pLo, pHi)
	}
	// Both must stay within the analytic sandwich [1/(1+p), 1+p].
	if lHi > (1+p)*1.001 || lLo < 1/(1+p)*0.999 {
		t.Fatalf("Lanczos [%v,%v] escapes sandwich [%v,%v]", lLo, lHi, 1/(1+p), 1+p)
	}
}

func TestLanczosBreakdownOnZeroStart(t *testing.T) {
	l := NewLaplacian(graph.Path(4))
	apply := func(dst, src Vec) { l.Apply(dst, src) }
	inner := func(u, v Vec) float64 { return u.Dot(v) }
	if _, err := Lanczos(4, 5, NewVec(4), apply, inner); err == nil {
		t.Fatal("zero start vector should break down")
	}
}
