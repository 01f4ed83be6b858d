package linalg

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lapcc/internal/graph"
)

func meanFreeRandomVec(n int, seed int64) Vec {
	rng := rand.New(rand.NewSource(seed))
	b := NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	b.RemoveMean()
	return b
}

func TestSolveCGLaplacianMatchesDense(t *testing.T) {
	g, err := graph.ConnectedGNM(15, 35, 6)
	if err != nil {
		t.Fatal(err)
	}
	wg := graph.WithRandomWeights(g, 8, 7)
	l := NewLaplacian(wg)
	b := meanFreeRandomVec(15, 8)

	x, res, err := SolveCG(l, b, CGOptions{Tol: 1e-12, ProjectMean: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 1e-12 {
		t.Fatalf("residual %v", res.Residual)
	}
	want, err := LaplacianPseudoSolve(l.Dense(), b)
	if err != nil {
		t.Fatal(err)
	}
	if d := x.Sub(want).Norm2(); d > 1e-8 {
		t.Fatalf("CG and dense pseudo-solve differ by %v", d)
	}
}

func TestSolveCGWithJacobiPreconditioner(t *testing.T) {
	g, err := graph.ConnectedGNM(30, 80, 9)
	if err != nil {
		t.Fatal(err)
	}
	wg := graph.WithRandomWeights(g, 1000, 10) // badly scaled weights
	l := NewLaplacian(wg)
	b := meanFreeRandomVec(30, 11)

	plain, resPlain, err := SolveCG(l, b, CGOptions{Tol: 1e-10, ProjectMean: true})
	if err != nil {
		t.Fatal(err)
	}
	pre, resPre, err := SolveCG(l, b, CGOptions{Tol: 1e-10, ProjectMean: true, Precond: l.Degrees()})
	if err != nil {
		t.Fatal(err)
	}
	if d := plain.Sub(pre).Norm2(); d > 1e-6*(1+plain.Norm2()) {
		t.Fatalf("preconditioned and plain solutions differ by %v", d)
	}
	t.Logf("iterations: plain=%d jacobi=%d", resPlain.Iterations, resPre.Iterations)
}

func TestSolveCGZeroRHS(t *testing.T) {
	l := NewLaplacian(graph.Path(5))
	x, res, err := SolveCG(l, NewVec(5), CGOptions{ProjectMean: true})
	if err != nil {
		t.Fatal(err)
	}
	if x.Norm2() != 0 || res.Iterations != 0 {
		t.Fatalf("zero rhs gave x=%v iters=%d", x, res.Iterations)
	}
}

func TestSolveCGDimensionError(t *testing.T) {
	l := NewLaplacian(graph.Path(5))
	if _, _, err := SolveCG(l, NewVec(4), CGOptions{}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

func TestSolveCGReportsNonConvergence(t *testing.T) {
	g, err := graph.ConnectedGNM(40, 80, 12)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLaplacian(g)
	b := meanFreeRandomVec(40, 13)
	_, _, err = SolveCG(l, b, CGOptions{Tol: 1e-14, MaxIter: 2, ProjectMean: true})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("error = %v, want ErrNoConvergence", err)
	}
}

func TestLaplacianCGSolverClosure(t *testing.T) {
	g, err := graph.ConnectedGNM(12, 24, 14)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLaplacian(g)
	solve := LaplacianCGSolver(l, 1e-12)
	b := meanFreeRandomVec(12, 15)
	x, err := solve(b)
	if err != nil {
		t.Fatal(err)
	}
	lx := NewVec(12)
	l.Apply(lx, x)
	if r := lx.Sub(b).Norm2(); r > 1e-10 {
		t.Fatalf("residual %v", r)
	}
}

// TestSolveCGIterationAllocatesNothing: a warm SolveCG with Scratch makes
// as many allocations at Tol 1e-11 as at 1e-4, with and without a pool, so
// an iteration allocates nothing — at n = 128 the Jacobi sweep and the p
// update run inline instead of through per-iteration Range closures.
func TestSolveCGIterationAllocatesNothing(t *testing.T) {
	g, err := graph.RandomRegular(128, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := meanFreeRandomVec(g.N(), 5)
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			l := NewLaplacian(g)
			if workers > 0 {
				l.SetPool(SharedPool(workers))
			}
			opts := CGOptions{Precond: l.Degrees().Clone(), ProjectMean: true, Scratch: &CGScratch{}, Pool: l.Pool()}
			measure := func(tol float64) (allocs float64, res CGResult) {
				opts.Tol = tol
				allocs = testing.AllocsPerRun(20, func() {
					var err error
					if _, res, err = SolveCG(l, b, opts); err != nil {
						t.Fatal(err)
					}
				})
				return allocs, res
			}
			loose, looseRes := measure(1e-4)
			tight, tightRes := measure(1e-11)
			if tightRes.Iterations <= looseRes.Iterations {
				t.Fatalf("Tol 1e-11 ran %d iterations, 1e-4 %d: want more", tightRes.Iterations, looseRes.Iterations)
			}
			if tight != loose {
				t.Fatalf("SolveCG allocates %v times at Tol 1e-11 (%d iterations) and %v at 1e-4 (%d): an iteration allocates",
					tight, tightRes.Iterations, loose, looseRes.Iterations)
			}
		})
	}
}
