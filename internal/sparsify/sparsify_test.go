package sparsify

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/rounds"
)

func TestSparsifyRejectsEmpty(t *testing.T) {
	if _, err := Sparsify(graph.New(4), Options{}); !errors.Is(err, ErrEmptyGraph) {
		t.Fatalf("error = %v, want ErrEmptyGraph", err)
	}
}

// TestSparsifyMultiPartEdgeDigest pins H edge for edge, in order and to
// the bit, on a weighted two-cluster graph whose decomposition certifies
// more parts than it runs levels, so at least one level merges two or more
// product-demand pieces into H, and parts above SmallPartCutoff take the
// bucketed construction. The digest is a golden value: any change to the
// pieces' edges, their order or their weights' bits fails here.
func TestSparsifyMultiPartEdgeDigest(t *testing.T) {
	g, err := graph.TwoClusters(40, 6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sparsify(graph.WithRandomWeights(g, 8, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parts <= res.Levels {
		t.Fatalf("%d parts over %d levels: no level has two parts", res.Parts, res.Levels)
	}
	// FNV-1a over each edge's endpoints and weight bits, little-endian.
	d := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			d ^= x & 0xff
			d *= 1099511628211
			x >>= 8
		}
	}
	for _, e := range res.H.Edges() {
		mix(uint64(e.U))
		mix(uint64(e.V))
		mix(math.Float64bits(e.W))
	}
	const want = 0xd85c63d276631a5d
	if res.H.M() != 771 || res.Parts != 40 || res.Levels != 5 || d != want {
		t.Fatalf("H has %d edges from %d parts over %d levels, digest %#x; want 771, 40, 5, %#x",
			res.H.M(), res.Parts, res.Levels, d, uint64(want))
	}
}

func TestSparsifyKeepsVertexSetAndConnectivity(t *testing.T) {
	g, err := graph.RandomRegular(96, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sparsify(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.H.N() != g.N() {
		t.Fatalf("sparsifier has n=%d, want %d", res.H.N(), g.N())
	}
	if !res.H.IsConnected() {
		t.Fatal("sparsifier of a connected graph must be connected")
	}
	if res.LeftoverEdges != 0 {
		t.Fatalf("%d leftover edges on a healthy run", res.LeftoverEdges)
	}
}

func TestSparsifyShrinksDenseGraphs(t *testing.T) {
	// On a clique, the sparsifier must be much smaller than m = n(n-1)/2.
	g := graph.Complete(128)
	res, err := Sparsify(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.H.M() >= g.M()/2 {
		t.Fatalf("sparsifier has %d edges for input %d; expected substantial shrinkage", res.H.M(), g.M())
	}
	t.Logf("K128: m=%d sparsifier=%d levels=%d parts=%d", g.M(), res.H.M(), res.Levels, res.Parts)
}

func TestSparsifyAlphaModerate(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    func() *graph.Graph
	}{
		{"complete64", func() *graph.Graph { return graph.Complete(64) }},
		{"regular", func() *graph.Graph {
			g, err := graph.RandomRegular(80, 8, 11)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"twoClusters", func() *graph.Graph {
			g, err := graph.TwoClusters(40, 6, 2, 13)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"grid", func() *graph.Graph { return graph.Grid(9, 9) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g()
			res, err := Sparsify(g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			alpha, err := MeasureAlpha(g, res.H, 200)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: m=%d -> %d edges, alpha=%.2f", tc.name, g.M(), res.H.M(), alpha)
			if alpha > 1e4 {
				t.Fatalf("alpha = %v is uselessly large", alpha)
			}
		})
	}
}

func TestSparsifySandwichOnRandomVectors(t *testing.T) {
	g, err := graph.RandomRegular(64, 6, 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sparsify(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := MeasureAlpha(g, res.H, 250)
	if err != nil {
		t.Fatal(err)
	}
	lg := linalg.NewLaplacian(g)
	lh := linalg.NewLaplacian(res.H)
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		x := linalg.NewVec(g.N())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		qg, qh := lg.Quad(x), lh.Quad(x)
		if qh == 0 {
			continue
		}
		ratio := qg / qh
		if ratio > alpha*1.01 || ratio < 1/(alpha*1.01) {
			t.Fatalf("trial %d: Rayleigh ratio %v outside [1/%v, %v]", trial, ratio, alpha, alpha)
		}
	}
}

func TestSparsifyWeightedClasses(t *testing.T) {
	// Weights spanning several binary classes must still give a finite,
	// moderate alpha.
	base, err := graph.RandomRegular(60, 6, 23)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.WithRandomWeights(base, 64, 29)
	res, err := Sparsify(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.H.IsConnected() {
		t.Fatal("sparsifier disconnected")
	}
	alpha, err := MeasureAlpha(g, res.H, 200)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("weighted: m=%d -> %d edges, alpha=%.2f", g.M(), res.H.M(), alpha)
	if alpha > 1e4 {
		t.Fatalf("alpha = %v too large", alpha)
	}
}

func TestSparsifyChargesRounds(t *testing.T) {
	g := graph.Complete(48)
	led := rounds.New()
	if _, err := Sparsify(g, Options{Ledger: led}); err != nil {
		t.Fatal(err)
	}
	if led.TotalOf(rounds.Charged) == 0 {
		t.Fatal("no charged decomposition rounds recorded")
	}
	if led.TotalOf(rounds.Measured) == 0 {
		t.Fatal("no measured broadcast rounds recorded")
	}
}

func TestSparsifySmallGraphExact(t *testing.T) {
	// Tiny parts keep exact product demand graphs; alpha should be small.
	g := graph.Complete(12)
	res, err := Sparsify(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := MeasureAlpha(g, res.H, 300)
	if err != nil {
		t.Fatal(err)
	}
	if alpha > 10 {
		t.Fatalf("alpha = %v for K12; expected close to 1", alpha)
	}
}

func TestMeasureAlphaDimensionMismatch(t *testing.T) {
	if _, err := MeasureAlpha(graph.Complete(4), graph.Complete(5), 50); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

func TestMeasureAlphaLanczosAgreesWithPowerIteration(t *testing.T) {
	g, err := graph.RandomRegular(72, 8, 33)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sparsify(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	aPow, err := MeasureAlpha(g, res.H, 250)
	if err != nil {
		t.Fatal(err)
	}
	aLan, err := MeasureAlphaLanczos(g, res.H, 60)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("alpha: power=%.3f lanczos=%.3f", aPow, aLan)
	// Both measure the same pencil; they must agree within the estimators'
	// slack (Lanczos usually sees slightly more of the spectrum).
	if aLan < aPow*0.8 || aLan > aPow*1.5 {
		t.Fatalf("estimators disagree: power=%v lanczos=%v", aPow, aLan)
	}
}

func TestMeasureAlphaLanczosDimensionMismatch(t *testing.T) {
	if _, err := MeasureAlphaLanczos(graph.Complete(4), graph.Complete(5), 20); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

// Ground truth for the alpha measurement: the dense generalized-eigenvalue
// oracle on a real sparsifier pencil. This pins that MeasureAlpha is
// neither optimistic (missing spectrum) nor the Lanczos artifacts real.
func TestMeasureAlphaAgainstDenseOracle(t *testing.T) {
	g, err := graph.RandomRegular(72, 8, 33)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sparsify(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := linalg.PencilEigenDense(
		linalg.NewLaplacian(g).Dense(), linalg.NewLaplacian(res.H).Dense(), 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	exLo, exHi := exact[0], exact[len(exact)-1]
	exactAlpha := linalg.EffectiveAlpha(exLo, exHi)
	measured, err := MeasureAlpha(g, res.H, 250)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("exact pencil [%v, %v] -> alpha %.3f; MeasureAlpha %.3f", exLo, exHi, exactAlpha, measured)
	if measured < exactAlpha/1.3 {
		t.Fatalf("MeasureAlpha %v underestimates exact %v", measured, exactAlpha)
	}
	if measured > exactAlpha*1.3 {
		t.Fatalf("MeasureAlpha %v overestimates exact %v", measured, exactAlpha)
	}
}
