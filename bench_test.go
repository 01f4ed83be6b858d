package lapcc_test

// One testing.B benchmark per experiment of EXPERIMENTS.md (E1-E8). Each
// reports the congested-clique round count of a representative instance as
// the custom metric "rounds/op" alongside wall-clock time; the full
// parameter sweeps live in cmd/experiments.
//
//	go test -bench=. -benchmem

import (
	"math"
	"testing"

	"lapcc/internal/euler"
	"lapcc/internal/flowround"
	"lapcc/internal/graph"
	"lapcc/internal/lapsolver"
	"lapcc/internal/linalg"
	"lapcc/internal/maxflow"
	"lapcc/internal/mcmf"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
	"lapcc/internal/sparsify"
)

// BenchmarkE1Sparsifier measures Theorem 3.3: building the deterministic
// spectral sparsifier of a 256-node 8-regular graph.
func BenchmarkE1Sparsifier(b *testing.B) {
	g, err := graph.RandomRegular(256, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	var lastRounds int64
	var lastEdges int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		led := rounds.New()
		res, err := sparsify.Sparsify(g, sparsify.Options{Ledger: led})
		if err != nil {
			b.Fatal(err)
		}
		lastRounds = led.Total()
		lastEdges = res.H.M()
	}
	b.ReportMetric(float64(lastRounds), "rounds/op")
	b.ReportMetric(float64(lastEdges), "sparsifier-edges")
}

// BenchmarkE2LaplacianSolve measures Theorem 1.1: one eps=1e-8 solve on a
// 256-node graph (sparsifier construction amortized outside the loop).
func BenchmarkE2LaplacianSolve(b *testing.B) {
	g, err := graph.RandomRegular(256, 8, 2)
	if err != nil {
		b.Fatal(err)
	}
	led := rounds.New()
	s, err := lapsolver.NewSolver(g, lapsolver.Options{Env: runenv.Env{Ledger: led}})
	if err != nil {
		b.Fatal(err)
	}
	rhs := linalg.NewVec(256)
	rhs[0] = 1
	rhs[255] = -1
	var lastRounds int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		led.Reset()
		if _, _, err := s.Solve(rhs, 1e-8); err != nil {
			b.Fatal(err)
		}
		lastRounds = led.Total()
	}
	b.ReportMetric(float64(lastRounds), "rounds/op")
}

// BenchmarkE3Eulerian measures Theorem 1.4: orienting a 1024-node Eulerian
// graph with real message passing.
func BenchmarkE3Eulerian(b *testing.B) {
	g, err := graph.RandomEulerian(1024, 66, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	var lastRounds int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		led := rounds.New()
		if _, _, err := euler.Orient(g, nil, euler.Options{Env: runenv.Env{Ledger: led}}); err != nil {
			b.Fatal(err)
		}
		lastRounds = led.Total()
	}
	b.ReportMetric(float64(lastRounds), "rounds/op")
	b.ReportMetric(math.Log2(1024)*float64(rounds.LogStar(1024)), "lgn-logstar-bound")
}

// BenchmarkE4FlowRounding measures Lemma 4.2 at Delta = 2^-12.
func BenchmarkE4FlowRounding(b *testing.B) {
	const delta = 1.0 / 4096
	dg := graph.NewDi(24)
	var flows []float64
	rng := newBenchRng(4)
	for p := 0; p < 10; p++ {
		cur := 0
		var arcs []int
		for cur != 23 {
			next := cur + 1 + rng.Intn(23-cur)
			arcs = append(arcs, dg.MustAddArc(cur, next, 1<<20, 1))
			cur = next
		}
		amount := delta * float64(1+rng.Intn(4096))
		for range arcs {
			flows = append(flows, amount)
		}
	}
	var lastRounds int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		led := rounds.New()
		if _, err := flowround.Round(dg, flows, 0, 23, delta, false, runenv.Env{Ledger: led}); err != nil {
			b.Fatal(err)
		}
		lastRounds = led.Total()
	}
	b.ReportMetric(float64(lastRounds), "rounds/op")
}

// BenchmarkE5MaxFlow measures Theorem 1.2 end to end on a layered network.
func BenchmarkE5MaxFlow(b *testing.B) {
	dg := graph.LayeredDAG(3, 5, 2, 8, 5)
	s, t := 0, dg.N()-1
	var lastRounds int64
	var lastIters int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		led := rounds.New()
		res, err := maxflow.MaxFlow(dg, s, t, maxflow.Options{Env: runenv.Env{Ledger: led}})
		if err != nil {
			b.Fatal(err)
		}
		lastRounds = led.Total()
		lastIters = res.IPMIterations
	}
	b.ReportMetric(float64(lastRounds), "rounds/op")
	b.ReportMetric(float64(lastIters), "ipm-iterations")
	shape := math.Pow(float64(dg.M()), 3.0/7.0) * math.Pow(float64(dg.MaxCapacity()), 1.0/7.0)
	b.ReportMetric(shape, "m37U17-shape")
}

// BenchmarkE6MinCostFlow measures Theorem 1.3 end to end on an assignment
// instance.
func BenchmarkE6MinCostFlow(b *testing.B) {
	rng := newBenchRng(6)
	dg := graph.NewDi(12)
	sigma := make([]int64, 12)
	for u := 0; u < 6; u++ {
		partner := u % 6
		dg.MustAddArc(u, 6+partner, 1, 1+rng.Int63n(16))
		dg.MustAddArc(u, 6+rng.Intn(6), 1, 1+rng.Int63n(16))
		dg.MustAddArc(u, 6+rng.Intn(6), 1, 1+rng.Int63n(16))
		sigma[u] = 1
		sigma[6+partner]--
	}
	var lastRounds int64
	var lastRepairs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		led := rounds.New()
		res, err := mcmf.MinCostFlow(dg, sigma, mcmf.Options{Env: runenv.Env{Ledger: led}})
		if err != nil {
			b.Fatal(err)
		}
		lastRounds = led.Total()
		lastRepairs = res.RepairAugmentations
	}
	b.ReportMetric(float64(lastRounds), "rounds/op")
	b.ReportMetric(float64(lastRepairs), "repair-augmentations")
}

// BenchmarkE7Baselines measures the section 1.1 Ford-Fulkerson baseline on
// the same instance as E5, for direct comparison of rounds/op.
func BenchmarkE7Baselines(b *testing.B) {
	dg := graph.LayeredDAG(3, 5, 2, 8, 5)
	s, t := 0, dg.N()-1
	var lastRounds int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ff, err := maxflow.FordFulkerson(dg, s, t, nil)
		if err != nil {
			b.Fatal(err)
		}
		lastRounds = ff.Rounds
	}
	b.ReportMetric(float64(lastRounds), "rounds/op")
	b.ReportMetric(float64(maxflow.TrivialRounds(dg)), "trivial-rounds")
}

// BenchmarkE8Chebyshev measures the Corollary 2.3 kernel: a kappa=4
// preconditioned Chebyshev solve to eps=1e-8 (iterations ~ sqrt(kappa)
// log(1/eps)).
func BenchmarkE8Chebyshev(b *testing.B) {
	g, err := graph.ConnectedGNM(60, 150, 7)
	if err != nil {
		b.Fatal(err)
	}
	lg := linalg.NewLaplacian(graph.WithRandomWeights(g, 6, 8))
	h := graph.New(60)
	const p = 1.0
	for i, e := range lg.Graph().Edges() {
		w := e.W
		if i%2 == 0 {
			w *= 1 + p
		} else {
			w /= 1 + p
		}
		h.MustAddEdge(e.U, e.V, w)
	}
	lh := linalg.NewLaplacian(h)
	inner := linalg.LaplacianCGSolver(lh, 1e-13)
	bSolve := func(dst, r linalg.Vec) error {
		y, err := inner(r)
		if err != nil {
			return err
		}
		copy(dst, y)
		dst.Scale(1 / (1 + p))
		return nil
	}
	rhs := linalg.NewVec(60)
	rhs[0] = 1
	rhs[59] = -1
	kappa := (1 + p) * (1 + p)
	var lastIters int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res, err := linalg.PreconCheby(lg, bSolve, rhs, linalg.ChebyOptions{Kappa: kappa, Eps: 1e-8})
		if err != nil {
			b.Fatal(err)
		}
		lastIters = res.Iterations
	}
	b.ReportMetric(float64(lastIters), "rounds/op") // one round per iteration
	b.ReportMetric(float64(linalg.ChebyIterationBound(kappa, 1e-8)), "theory-bound")
}
