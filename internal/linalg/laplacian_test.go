package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lapcc/internal/graph"
)

func randomGraph(t *testing.T, n, m int, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.ConnectedGNM(n, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLaplacianDegrees(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 3)
	l := NewLaplacian(g)
	deg := l.Degrees()
	want := Vec{2, 5, 3}
	for i := range want {
		if deg[i] != want[i] {
			t.Fatalf("deg = %v, want %v", deg, want)
		}
	}
}

func TestLaplacianApplyMatchesDense(t *testing.T) {
	g := randomGraph(t, 12, 25, 3)
	wg := graph.WithRandomWeights(g, 10, 4)
	l := NewLaplacian(wg)
	d := l.Dense()
	rng := rand.New(rand.NewSource(5))
	x := NewVec(12)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := NewVec(12)
	y2 := NewVec(12)
	l.Apply(y1, x)
	d.Apply(y2, x)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-9 {
			t.Fatalf("matrix-free and dense disagree at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

// Property: L*1 = 0 and x^T L x >= 0 for any x (PSD with ones-nullspace).
func TestLaplacianPSDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(15)
		maxExtra := n*(n-1)/2 - (n - 1)
		g, err := graph.ConnectedGNM(n, n-1+rng.Intn(maxExtra), seed)
		if err != nil {
			return false
		}
		l := NewLaplacian(graph.WithRandomWeights(g, 9, seed+1))
		ones := NewVec(n)
		for i := range ones {
			ones[i] = 1
		}
		out := NewVec(n)
		l.Apply(out, ones)
		if out.NormInf() > 1e-9 {
			return false
		}
		x := NewVec(n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if l.Quad(x) < -1e-9 {
			return false
		}
		// Quad must agree with x^T (L x).
		l.Apply(out, x)
		return math.Abs(l.Quad(x)-x.Dot(out)) < 1e-6*(1+math.Abs(l.Quad(x)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLaplacianNorm(t *testing.T) {
	g := graph.Path(3)
	l := NewLaplacian(g)
	// x = (0,1,2): quad = (0-1)^2 + (1-2)^2 = 2.
	x := Vec{0, 1, 2}
	if got := l.Quad(x); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Quad = %v, want 2", got)
	}
	if got := l.Norm(x); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Fatalf("Norm = %v, want sqrt(2)", got)
	}
}

// TestRefreshAfterRewire is the regression test for the stale-pair-cache
// bug: RewireEdge keeps M constant, so the old `len(egroup) != M` guard
// skipped the pair rebuild and Refresh silently kept the old topology's
// coalesced groups. The generation-keyed guard must rebuild, making a
// refreshed Laplacian bit-identical to one built fresh on the rewired graph.
func TestRefreshAfterRewire(t *testing.T) {
	g := graph.New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 3)
	g.MustAddEdge(3, 4, 4)
	g.MustAddEdge(4, 5, 5)
	l := NewLaplacian(g)

	if err := g.RewireEdge(1, 0, 5); err != nil {
		t.Fatal(err)
	}
	if g.M() != 5 {
		t.Fatalf("RewireEdge changed M to %d", g.M())
	}
	l.Refresh()

	fresh := NewLaplacian(g)
	src := Vec{1, -2, 3, -4, 5, -6}
	got, want := NewVec(6), NewVec(6)
	l.Apply(got, src)
	fresh.Apply(want, src)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("refreshed Apply[%d] = %v, fresh build %v — stale pair cache", i, got[i], want[i])
		}
	}
	for i := range want {
		if ld, fd := l.Degrees()[i], fresh.Degrees()[i]; ld != fd {
			t.Fatalf("refreshed degree[%d] = %v, fresh %v", i, ld, fd)
		}
	}
}
