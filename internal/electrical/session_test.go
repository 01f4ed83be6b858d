package electrical

import (
	"math"
	"math/rand"
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
)

func sessionTestGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.RandomRegular(n, 6, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// freshInternalSolve is the pre-session internal path: build the Laplacian
// and the Jacobi-preconditioned CG solver from scratch, exactly as the
// IPMs used to per iteration.
func freshInternalSolve(t *testing.T, g *graph.Graph, b linalg.Vec, eps float64) linalg.Vec {
	t.Helper()
	solver := linalg.LaplacianCGSolver(linalg.NewLaplacian(g), eps)
	x, err := solver(b)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// A cold session solve on the internal path must be bit-identical to a
// fresh build: same edge order, same degree summation order, same
// deterministic CG.
func TestSessionColdBitIdentity(t *testing.T) {
	g := sessionTestGraph(t, 48, 11)
	sess, err := NewSession(g.Clone(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := linalg.NewVec(g.N())
	b[0] = 1
	b[g.N()-1] = -1
	const eps = 1e-10

	got, err := sess.Potentials(b, eps, "test")
	if err != nil {
		t.Fatal(err)
	}
	want := freshInternalSolve(t, g, b, eps)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phi[%d] = %v, fresh build gives %v (not bit-identical)", i, got[i], want[i])
		}
	}
}

// A reweighted session solve must be bit-identical to a fresh build on the
// new weights, including the degenerate-conductance clamp the IPMs rely on.
func TestSessionReweightBitIdentity(t *testing.T) {
	g := sessionTestGraph(t, 48, 12)
	sess, err := NewSession(g.Clone(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	w := make([]float64, g.M())
	for i := range w {
		w[i] = math.Exp(rng.NormFloat64())
	}
	w[0] = 0           // clamped to 1e-12
	w[1] = math.Inf(1) // clamped
	w[2] = math.NaN()  // clamped
	if err := sess.Reweight(w); err != nil {
		t.Fatal(err)
	}

	fresh := g.Clone()
	for i, wi := range w {
		if wi <= 0 || math.IsInf(wi, 0) || math.IsNaN(wi) {
			wi = 1e-12
		}
		if err := fresh.SetWeight(i, wi); err != nil {
			t.Fatal(err)
		}
	}

	b := linalg.NewVec(g.N())
	b[3] = 1
	b[7] = -1
	const eps = 1e-10
	got, err := sess.Potentials(b, eps, "test")
	if err != nil {
		t.Fatal(err)
	}
	want := freshInternalSolve(t, fresh, b, eps)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phi[%d] = %v after reweight, fresh build gives %v", i, got[i], want[i])
		}
	}
	if st := sess.Stats(); st.Solves != 1 || st.Reweights != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Warm starting changes the seed, not the answer's quality: the solve must
// still meet the residual tolerance on the current Laplacian.
func TestSessionWarmStartStaysAccurate(t *testing.T) {
	g := sessionTestGraph(t, 48, 14)
	sess, err := NewSession(g.Clone(), SessionOptions{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-10
	rng := rand.New(rand.NewSource(15))
	w := make([]float64, g.M())
	b := linalg.NewVec(g.N())
	b[1] = 1
	b[5] = -1
	for iter := 0; iter < 4; iter++ {
		for i := range w {
			w[i] = 1 + 0.2*float64(iter)*rng.Float64()
		}
		if err := sess.Reweight(w); err != nil {
			t.Fatal(err)
		}
		phi, err := sess.Potentials(b, eps, "loop")
		if err != nil {
			t.Fatal(err)
		}
		r := b.Clone()
		av := linalg.NewVec(g.N())
		sess.Laplacian().Apply(av, phi)
		r.AXPY(-1, av)
		r.RemoveMean()
		if res := r.Norm2() / b.Norm2(); res > eps {
			t.Fatalf("iter %d: warm-started residual %g > %g", iter, res, eps)
		}
	}
}

// Full mode drives the complete Theorem 1.1 stack through the same session
// surface: reweight, solve, and check the answer against the internal path.
func TestSessionFullModeReweight(t *testing.T) {
	g := sessionTestGraph(t, 48, 16)
	sess, err := NewSession(g.Clone(), SessionOptions{Full: true})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Solver() == nil {
		t.Fatal("full mode without a solver")
	}
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1.25
	}
	if err := sess.Reweight(w); err != nil {
		t.Fatal(err)
	}
	b := linalg.NewVec(g.N())
	b[2] = 1
	b[9] = -1
	const eps = 1e-8
	phi, err := sess.Potentials(b, eps, "full")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSession(sess.Graph().Clone(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Potentials(b, 1e-12, "ref")
	if err != nil {
		t.Fatal(err)
	}
	diff := phi.Clone()
	diff.AXPY(-1, want)
	diff.RemoveMean()
	if rel := diff.Norm2() / want.Norm2(); rel > 1e-4 {
		t.Fatalf("full-mode potentials off by %g relative", rel)
	}
}

func TestSessionReweightLengthMismatch(t *testing.T) {
	g := sessionTestGraph(t, 32, 17)
	sess, err := NewSession(g, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Reweight(make([]float64, 2)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
