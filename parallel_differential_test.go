package lapcc_test

// Differential worker-count tests: every numerical layer must produce a
// bit-identical answer at any Workers setting. This is the acceptance gate
// of the parallel runtime — parallelism may change wall clock, never
// results. Workers=1 is the historical sequential code path, so pinning
// equality against it also pins equality against the pre-parallel tree.
//
// The suite runs in `make stress` under -race alongside the fault
// differentials (parallelism and fault injection are the two subsystems
// whose only permitted effect is on cost, never on answers).

import (
	"fmt"
	"math"
	"testing"

	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/sparsify"
)

// diffWorkers is the worker sweep of the differential suite; 3 exercises an
// odd split of the fixed block partition, 8 oversubscribes the host.
var diffWorkers = []int{2, 3, 8}

// vecHash folds a vector's exact bit patterns into one word, so a
// divergence anywhere shows up as a hash mismatch even before the per-entry
// comparison pinpoints it.
func vecHash(v linalg.Vec) uint64 {
	h := uint64(1469598103934665603)
	for _, x := range v {
		h ^= math.Float64bits(x)
		h *= 1099511628211
	}
	return h
}

func mustGraph(t *testing.T, n, m int, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.ConnectedGNM(n, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func requireSameVec(t *testing.T, label string, want, got linalg.Vec) {
	t.Helper()
	if vecHash(want) == vecHash(got) {
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: entry %d = %v, sequential gives %v (not bit-identical)", label, i, got[i], want[i])
		}
	}
	t.Fatalf("%s: hash mismatch without entry mismatch (length %d vs %d?)", label, len(want), len(got))
}

// TestParallelDifferentialApply: the blocked CSR Apply against the
// sequential pair loop, on a graph big enough that the row blocks split.
func TestParallelDifferentialApply(t *testing.T) {
	g := mustGraph(t, 3000, 15000, 31)
	src := linalg.NewVec(g.N())
	for i := range src {
		src[i] = math.Sin(float64(i) * 0.37)
	}
	l := linalg.NewLaplacian(g)
	want := linalg.NewVec(g.N())
	l.Apply(want, src)

	for _, w := range diffWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			lp := linalg.NewLaplacian(g)
			lp.SetPool(linalg.SharedPool(w))
			lp.Refresh()
			got := linalg.NewVec(g.N())
			lp.Apply(got, src)
			requireSameVec(t, "Apply", want, got)
		})
	}
}

// TestParallelDifferentialCG: a full Jacobi-CG solve, iterate for iterate.
func TestParallelDifferentialCG(t *testing.T) {
	g := mustGraph(t, 2000, 9000, 32)
	b := linalg.NewVec(g.N())
	b[7], b[1234] = 1, -1
	solve := func(workers int) (linalg.Vec, linalg.CGResult) {
		l := linalg.NewLaplacian(g)
		l.SetPool(linalg.SharedPool(workers))
		l.Refresh()
		x, res, err := linalg.SolveCG(l, b, linalg.CGOptions{
			Tol: 1e-10, Precond: l.Degrees().Clone(), ProjectMean: true, Pool: l.Pool(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return x, res
	}
	want, wantRes := solve(1)
	for _, w := range diffWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			got, gotRes := solve(w)
			if gotRes != wantRes {
				t.Fatalf("CG result %+v, sequential %+v", gotRes, wantRes)
			}
			requireSameVec(t, "CG", want, got)
		})
	}
}

// TestParallelDifferentialSolver: the full Theorem 1.1 solver stack —
// sparsifier chain build, Chebyshev iteration, round ledger — through the
// core facade at every worker count. Rounds must match exactly too:
// parallelism is internal computation, free in the congested-clique model.
func TestParallelDifferentialSolver(t *testing.T) {
	g := mustGraph(t, 48, 140, 33)
	b := linalg.NewVec(g.N())
	b[0], b[47] = 1, -1
	want, err := core.SolveLaplacianWith(g.Clone(), b, 1e-8, core.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range diffWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			got, err := core.SolveLaplacianWith(g.Clone(), b, 1e-8, core.RunOptions{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			requireSameVec(t, "solver potentials", want.X, got.X)
			if got.Iterations != want.Iterations {
				t.Fatalf("iterations %d, sequential %d", got.Iterations, want.Iterations)
			}
			if got.SparsifierEdges != want.SparsifierEdges {
				t.Fatalf("sparsifier edges %d, sequential %d", got.SparsifierEdges, want.SparsifierEdges)
			}
			if got.Rounds.Total != want.Rounds.Total {
				t.Fatalf("rounds %d, sequential %d (parallelism must be round-free)", got.Rounds.Total, want.Rounds.Total)
			}
		})
	}
}

// TestParallelDifferentialSparsify: the spectral sparsifier itself — same
// edges, same weights, same certified part count, same rounds — with the
// per-part builds fanned out.
func TestParallelDifferentialSparsify(t *testing.T) {
	g := mustGraph(t, 64, 400, 34)
	build := func(workers int) *sparsify.Result {
		res, err := sparsify.Sparsify(g.Clone(), sparsify.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := build(1)
	for _, w := range diffWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			got := build(w)
			if got.H.M() != want.H.M() || got.Parts != want.Parts {
				t.Fatalf("sparsifier shape m=%d parts=%d, sequential m=%d parts=%d",
					got.H.M(), got.Parts, want.H.M(), want.Parts)
			}
			for i := 0; i < want.H.M(); i++ {
				we, ge := want.H.Edge(i), got.H.Edge(i)
				if we != ge {
					t.Fatalf("sparsifier edge %d = %+v, sequential %+v (merge order leaked)", i, ge, we)
				}
			}
		})
	}
}

// TestParallelDifferentialMaxflow: the full max-flow IPM end to end — flow
// values, per-arc flows, iteration counts, and round totals all pinned.
func TestParallelDifferentialMaxflow(t *testing.T) {
	dg := graph.LayeredDAG(3, 4, 2, 8, 35)
	s, tt := 0, dg.N()-1
	want, err := core.MaxFlowWith(dg, s, tt, core.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range diffWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			got, err := core.MaxFlowWith(dg, s, tt, core.RunOptions{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if got.Value != want.Value || got.IPMIterations != want.IPMIterations {
				t.Fatalf("value=%d iters=%d, sequential value=%d iters=%d",
					got.Value, got.IPMIterations, want.Value, want.IPMIterations)
			}
			for i := range want.Flow {
				if got.Flow[i] != want.Flow[i] {
					t.Fatalf("flow diverges at arc %d: %d != %d", i, got.Flow[i], want.Flow[i])
				}
			}
			if got.Rounds.Total != want.Rounds.Total {
				t.Fatalf("rounds %d, sequential %d", got.Rounds.Total, want.Rounds.Total)
			}
		})
	}
}

// TestParallelDifferentialChebyshev: the preconditioned Chebyshev iteration
// (the solver's outer loop) with pooled vector kernels against the
// sequential path, over an exact inner solver so only the pooled kernels
// can diverge.
func TestParallelDifferentialChebyshev(t *testing.T) {
	g := mustGraph(t, 40, 120, 36)
	b := linalg.NewVec(g.N())
	b[1], b[38] = 1, -1
	run := func(workers int) linalg.Vec {
		l := linalg.NewLaplacian(g)
		pool := linalg.SharedPool(workers)
		l.SetPool(pool)
		l.Refresh()
		inner := linalg.LaplacianCGSolver(l, 1e-12)
		solver := func(dst, r linalg.Vec) error {
			y, err := inner(r)
			copy(dst, y)
			return err
		}
		x, _, err := linalg.PreconCheby(l, solver, b, linalg.ChebyOptions{
			Eps: 1e-8, Kappa: 16, Pool: pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	want := run(1)
	for _, w := range diffWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			requireSameVec(t, "Chebyshev", want, run(w))
		})
	}
}
