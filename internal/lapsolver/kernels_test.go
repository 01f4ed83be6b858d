package lapsolver

import (
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/metrics"
)

// TestKernelCounts pins lapcc_linalg_kernel_calls_total, label by label,
// for one fixed build and solve, on each preconditioner path: the exact
// factor, and CG on L_H (taken above linalg.FactorMaxN, forced here on the
// same small instance). The benchmark's linalg.*_calls_per_req figures are
// these counters per request, so a call site that moves between a counted
// kernel and an uncounted Vec method changes what they mean and fails here.
func TestKernelCounts(t *testing.T) {
	kernels := []string{"apply", "dot", "sum", "axpy", "scale", "remove_mean"}
	g, err := graph.RandomRegular(64, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := meanFreeVec(g.N(), 2)
	for _, c := range []struct {
		name string
		cg   bool
		want map[string]int64
	}{
		{"factored", false, map[string]int64{"apply": 125, "dot": 129, "sum": 259, "axpy": 250, "scale": 4, "remove_mean": 3}},
		{"cg", true, map[string]int64{"apply": 2813, "dot": 8321, "sum": 5635, "axpy": 5626, "scale": 4, "remove_mean": 5635}},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			linalg.SetMetrics(reg)
			defer linalg.SetMetrics(nil)
			s, err := NewSolver(g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if c.cg {
				s.hf, s.lh = nil, linalg.NewLaplacian(s.h)
			}
			if _, _, err := s.Solve(b, 1e-8); err != nil {
				t.Fatal(err)
			}
			got := map[string]int64{}
			for _, k := range kernels {
				got[k] = reg.Counter("lapcc_linalg_kernel_calls_total",
					"Numerical kernel invocations, by kernel.", "kernel", k).Value()
			}
			for _, k := range kernels {
				if got[k] != c.want[k] {
					t.Fatalf("kernel counts %v, want %v", got, c.want)
				}
			}
		})
	}
}
