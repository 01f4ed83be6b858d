package lapsolver

import (
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
)

// Many-RHS serving: k right-hand sides through one warm-started session vs
// a freshly built solver per right-hand side. The second half of
// BENCH_solver.json.

const benchRHS = 8

func benchSolverGraph(b *testing.B) *graph.Graph {
	g, err := graph.RandomRegular(128, 8, 55)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchRHSVec(n, i int) linalg.Vec {
	v := linalg.NewVec(n)
	v[i%n] = 1
	v[(i+n/2)%n] = -1
	return v
}

func BenchmarkSolverSessionManyRHS(b *testing.B) {
	g := benchSolverGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSolver(g, Options{WarmStart: true})
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < benchRHS; k++ {
			if _, _, err := s.Solve(benchRHSVec(g.N(), k), 1e-8); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSolverSessionRebuildPerRHS(b *testing.B) {
	g := benchSolverGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < benchRHS; k++ {
			s, err := NewSolver(g, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := s.Solve(benchRHSVec(g.N(), k), 1e-8); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSolverSessionLanes solves four right-hand sides on a cold
// (WarmStart off) exact-reuse session over RandomRegular(128, 6), the
// daemon's pooled solve shape: as lanes of one SolveLanes call, against a
// loop of four Solve calls. The session is built once, outside the timer.
func BenchmarkSolverSessionLanes(b *testing.B) {
	g, err := graph.RandomRegular(128, 6, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSolver(g, Options{ExactReuse: true})
	if err != nil {
		b.Fatal(err)
	}
	bs := make([]linalg.Vec, 4)
	for k := range bs {
		bs[k] = benchRHSVec(g.N(), 17*k)
	}
	b.Run("lanes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.SolveLanes(bs, 1e-8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, rhs := range bs {
				if _, _, err := s.Solve(rhs, 1e-8); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
