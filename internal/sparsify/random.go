package sparsify

import (
	"fmt"
	"math"
	"math/rand"

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

// Randomized sparsification — the paper's closing remark: "replacing the
// Laplacian solver by a simpler, randomized solver (see [FV22]), we can
// convert the n^{o(1)} in both flow theorems into a polylog n factor."
// This file provides that simpler randomized ingredient: a
// Spielman-Srivastava effective-resistance sampling sparsifier. Effective
// resistances are estimated with the standard Johnson-Lindenstrauss
// sketch (O(log n) random +-1 edge projections, each one internal CG
// solve), edges are sampled with probability proportional to w_e * R_eff(e)
// and reweighted by 1/(q p_e). The round cost charged follows the [FV22]
// polylog regime.

// spectralEps is the randomized sparsifier's target spectral error; the
// sample count is O(n log n / spectralEps²).
const spectralEps = 0.5

// sketchDim is the number of JL projections for an n-vertex graph.
func sketchDim(n int) int {
	return 4*int(math.Ceil(math.Log2(float64(n)+2))) + 8
}

// RandomOptions configures RandomizedSparsify.
type RandomOptions struct {
	// Seed drives sampling; runs are reproducible per seed.
	Seed int64
	// Env is the run the construction's rounds are charged to.
	runenv.Env
}

// CiteFV22 is the citation string for randomized-sparsifier round charges.
const CiteFV22 = "FV22 randomized Laplacian paradigm, polylog n rounds"

// RandomizedSparsifyRounds is the polylog round formula charged per
// randomized sparsifier construction.
func RandomizedSparsifyRounds(n int) int64 {
	if n < 2 {
		return 1
	}
	lg := math.Log2(float64(n))
	return int64(math.Ceil(lg * lg))
}

// RandomizedSparsify computes a randomized spectral sparsifier of the
// connected graph g. Unlike Sparsify it is not deterministic — it exists to
// quantify, per the paper's remark, what randomization buys (polylog rounds
// instead of n^{o(1)}); EXPERIMENTS.md E2b reports the comparison.
func RandomizedSparsify(g *graph.Graph, opts RandomOptions) (*Result, error) {
	if g.M() == 0 {
		return nil, ErrEmptyGraph
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("sparsify: randomized sparsifier requires a connected graph")
	}
	opts.Bind()
	opts.Metrics.Counter("lapcc_sparsify_random_builds_total", "Randomized sparsifier builds.").Inc()
	sp := opts.Trace.Start("sparsify-randomized")
	defer sp.End()
	n := g.N()
	rng := rand.New(rand.NewSource(opts.Seed))
	lg := linalg.NewLaplacian(g)
	solve := linalg.LaplacianCGSolver(lg, 1e-10)

	// JL sketch of the effective-resistance embedding: for each random
	// +-1 edge vector r, solve L z = B^T W^{1/2} r; then
	// R_eff(u,v) ~ sum_k (z_k[u] - z_k[v])^2 (all internal computation).
	k := sketchDim(n)
	zs := make([]linalg.Vec, k)
	for i := 0; i < k; i++ {
		b := linalg.NewVec(n)
		for _, e := range g.Edges() {
			r := float64(rng.Intn(2)*2-1) * math.Sqrt(e.W)
			b[e.U] += r
			b[e.V] -= r
		}
		b.RemoveMean()
		z, err := solve(b)
		if err != nil {
			return nil, fmt.Errorf("sparsify: resistance sketch: %w", err)
		}
		zs[i] = z
	}
	reff := make([]float64, g.M())
	var totalScore float64
	for id, e := range g.Edges() {
		var r float64
		for i := 0; i < k; i++ {
			d := zs[i][e.U] - zs[i][e.V]
			r += d * d
		}
		r /= float64(k)
		// Clamp into the valid range (JL noise can stray slightly).
		if max := 1 / e.W; r > max {
			r = max
		}
		if r < 1e-15 {
			r = 1e-15
		}
		reff[id] = r
		totalScore += e.W * r
	}

	// Sample q = O(n log n / eps^2) edges with replacement, reweighted.
	q := int(math.Ceil(4 * float64(n) * math.Log2(float64(n)+2) / (spectralEps * spectralEps)))
	cum := make([]float64, g.M())
	var acc float64
	for id, e := range g.Edges() {
		acc += e.W * reff[id]
		cum[id] = acc
	}
	weights := make(map[int]float64)
	for s := 0; s < q; s++ {
		x := rng.Float64() * totalScore
		lo, hi := 0, g.M()-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		e := g.Edge(lo)
		p := e.W * reff[lo] / totalScore
		weights[lo] += e.W / (float64(q) * p)
	}
	h := graph.New(n)
	for id, w := range weights {
		e := g.Edge(id)
		h.MustAddEdge(e.U, e.V, w)
	}
	// Guarantee connectivity (sampling theory gives it whp; enforce it so
	// downstream CG solvers never see a broken preconditioner): add any
	// input edge joining distinct components at its original weight.
	if !h.IsConnected() {
		comp := componentLabels(h)
		for _, e := range g.Edges() {
			if comp[e.U] != comp[e.V] {
				h.MustAddEdge(e.U, e.V, e.W)
				merge(comp, comp[e.U], comp[e.V])
			}
		}
	}

	if opts.Ledger != nil {
		opts.Ledger.Add("sparsify-randomized", rounds.Charged, RandomizedSparsifyRounds(n), CiteFV22)
	}
	return &Result{H: h, Levels: 1, Parts: 1}, nil
}

func componentLabels(g *graph.Graph) []int {
	labels := make([]int, g.N())
	for i := range labels {
		labels[i] = -1
	}
	next := 0
	var queue []int
	for s := 0; s < g.N(); s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = next
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, h := range g.Adj(v) {
				if labels[h.To] == -1 {
					labels[h.To] = next
					queue = append(queue, h.To)
				}
			}
		}
		next++
	}
	return labels
}

func merge(labels []int, a, b int) {
	for i := range labels {
		if labels[i] == b {
			labels[i] = a
		}
	}
}
