package lapsolver

import (
	"fmt"
	"testing"

	"lapcc/internal/graph"
)

// TestSolveIterationAllocatesNothing: on a factored sparsifier a Chebyshev
// iteration allocates nothing — the preconditioner solve writes into the
// solver's scratch and every vector update runs in place — so a warm
// Solve's allocation count does not grow with its iteration count: eps
// 1e-10 runs more iterations than eps 1e-4 and allocates the same. Cases
// are named by n, like linalg's allocation checks; only a small n runs,
// because at n = linalg.FactorMaxN the check takes tens of seconds under
// the race detector.
func TestSolveIterationAllocatesNothing(t *testing.T) {
	for _, n := range []int{128} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			g, err := graph.RandomRegular(n, 6, 3)
			if err != nil {
				t.Fatal(err)
			}
			b := meanFreeVec(g.N(), 5)
			s, err := NewSolver(g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if s.hf == nil {
				t.Fatalf("n=%d sparsifier was not factored", n)
			}
			measure := func(eps float64) (allocs float64, st Stats) {
				allocs = testing.AllocsPerRun(20, func() {
					var err error
					if _, st, err = s.Solve(b, eps); err != nil {
						t.Fatal(err)
					}
				})
				return allocs, st
			}
			loose, looseSt := measure(1e-4)
			tight, tightSt := measure(1e-10)
			if tightSt.Iterations <= looseSt.Iterations || tightSt.Attempts != looseSt.Attempts {
				t.Fatalf("eps 1e-10 ran %d iterations in %d attempts, eps 1e-4 %d in %d: want more iterations in as many attempts",
					tightSt.Iterations, tightSt.Attempts, looseSt.Iterations, looseSt.Attempts)
			}
			if tight != loose {
				t.Fatalf("Solve allocates %v times at eps 1e-10 and %v at eps 1e-4: an iteration allocates", tight, loose)
			}
		})
	}
}
