// Package sparsify implements the deterministic spectral sparsifier of
// Theorem 3.3, following the Chuzhoy-Gao-Li-Nanongkai-Peng-Saranurak
// [CGLN+20] construction:
//
//  1. split the weighted graph into binary weight classes;
//  2. for each class, repeatedly compute an expander decomposition
//     (internal/expander, eps = 1/2) and replace every certified part by a
//     sparsified *product demand graph*; the crossing edges form the next
//     level, so O(log m) levels exhaust the class;
//  3. the union of all pieces, rescaled per class, is the sparsifier.
//
// The product demand graph H(d) of a part with degree vector d is the
// complete graph with weights d_u * d_v / vol — a 4/phi^2-approximation of
// any phi-expander with those degrees. Its internal sparsification (the
// paper cites Kyng-Lee-Peng-Sachdeva-Spielman [KLPS+16]) is substituted by
// a deterministic weighted-expander construction: vertices are bucketed by
// degree, each bucket carries a circulant expander, and bucket pairs are
// joined by balanced cyclic connectors, all reweighted to preserve weighted
// degrees. The effective approximation factor alpha of the whole chain is
// *measured* (MeasureAlpha) rather than assumed; the preconditioned
// Chebyshev solver adapts to whatever alpha the chain achieves, which is
// exactly how Corollary 2.3 consumes the sparsifier. See DESIGN.md,
// "Substitutions".
//
// In the congested clique, each decomposition level costs one CS20
// decomposition (charged) plus one all-to-all broadcast round in which every
// node announces its part id and degree (measured); building and
// sparsifying the product demand graphs is internal computation. The final
// sparsifier has O(n polylog n log U) edges and is known to every node,
// which is what makes the Theorem 1.1 solver's preconditioner solves free.
package sparsify

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"lapcc/internal/cc"
	"lapcc/internal/expander"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/trace"
)

// The construction's fixed parameters.
const (
	// levelEps is the per-level fraction of crossing edges, 1/2 as in the
	// paper's proof of Theorem 3.3.
	levelEps = 0.5
	// gamma is the CS20 round-cost exponent n^O(gamma) charged per
	// decomposition: 1/r² for r = 2 in Theorem 3.3.
	gamma = 0.25
	// smallPartCutoff: parts of at most this many vertices keep their exact
	// product demand graph instead of the expander-sparsified version.
	smallPartCutoff = 32
)

// maxLevels caps the decomposition levels of each weight class of an
// m-edge graph; the edges left after it are copied verbatim, which is
// always spectrally safe.
func maxLevels(m int) int {
	return 2*int(math.Ceil(math.Log2(float64(m+2)))) + 6
}

// Options configures Sparsify.
type Options struct {
	// Ledger, if non-nil, receives the round costs.
	Ledger *rounds.Ledger
	// Trace, if non-nil, receives hierarchical span and cost events for
	// this call (see internal/trace); a nil tracer records nothing and
	// costs nothing.
	Trace *trace.Tracer
	// Faults, if non-nil, injects the given fault plan into every network
	// primitive this package executes (its broadcasts, cc.Net.Broadcast).
	// Results are bit-identical to a fault-free run; only the round cost
	// grows.
	Faults *cc.FaultPlan
	// Transport, if non-nil, physically carries the per-level broadcast
	// through the given delivery backend (see cc.Transport); nil keeps the
	// in-process path. The sparsifier is bit-identical either way.
	Transport cc.Transport
	// Budget, if non-nil, is checked at every decomposition level;
	// exhaustion aborts with an error unwrapping to
	// rounds.ErrBudgetExceeded.
	Budget *rounds.Budget
	// Metrics, if non-nil, receives live phase counters (builds, levels,
	// parts, chain reuse decisions) and a mirror of the ledger's cost
	// stream; a nil registry records nothing and costs nothing.
	Metrics *metrics.Registry
	// Workers is ignored: the certified parts of a level are built one
	// after another.
	//
	// Deprecated: it has no effect and is kept only because the benchmark
	// module (bench/replay.go) still sets it.
	Workers int
}

// Result is the output of Sparsify.
type Result struct {
	// H is the sparsifier; it spans the same vertex set as the input.
	H *graph.Graph
	// Levels is the number of decomposition levels actually used, per
	// weight class, summed.
	Levels int
	// Parts is the total number of certified expander parts across all
	// levels and classes.
	Parts int
	// LeftoverEdges counts input edges copied verbatim when the level cap
	// was reached (0 in healthy runs).
	LeftoverEdges int
}

// ErrEmptyGraph reports sparsification of a graph with no edges.
var ErrEmptyGraph = errors.New("sparsify: graph has no edges")

// Sparsify computes a deterministic spectral sparsifier of g. Edge weights
// must be positive; the result is known to every clique node by
// construction (everything global is O(n polylog n) words, broadcast as it
// is built).
func Sparsify(g *graph.Graph, opts Options) (*Result, error) {
	if g.M() == 0 {
		return nil, ErrEmptyGraph
	}
	opts.Trace.Attach(opts.Ledger)
	opts.Metrics.MirrorLedger(opts.Ledger)
	sp := opts.Trace.Start("sparsify")
	defer sp.End()

	// Binary weight classes: class i holds edges with weight in [2^i, 2^{i+1}).
	classes := make(map[int][]int)
	for id, e := range g.Edges() {
		i := int(math.Floor(math.Log2(e.W)))
		classes[i] = append(classes[i], id)
	}
	classKeys := make([]int, 0, len(classes))
	for k := range classes {
		classKeys = append(classKeys, k)
	}
	sort.Ints(classKeys)

	h := graph.New(g.N())
	res := &Result{H: h}
	for _, ci := range classKeys {
		scale := math.Pow(2, float64(ci))
		csp := opts.Trace.Startf("class-%d", ci)
		err := sparsifyClass(g, classes[ci], scale, opts, res)
		csp.End()
		if err != nil {
			return nil, fmt.Errorf("sparsify: weight class 2^%d: %w", ci, err)
		}
	}
	if reg := opts.Metrics; reg != nil {
		reg.Counter("lapcc_sparsify_builds_total", "Deterministic sparsifier builds completed.").Inc()
		reg.Counter("lapcc_sparsify_levels_total", "Expander-decomposition levels executed across builds.").Add(int64(res.Levels))
		reg.Counter("lapcc_sparsify_parts_total", "Certified expander parts across builds.").Add(int64(res.Parts))
		reg.Counter("lapcc_sparsify_leftover_edges_total", "Edges copied verbatim after hitting the level cap.").Add(int64(res.LeftoverEdges))
	}
	return res, nil
}

// sparsifyClass runs the level loop for one (unit-treated) weight class.
func sparsifyClass(g *graph.Graph, edgeIDs []int, scale float64, opts Options, res *Result) error {
	cur := edgeIDs
	for level := 0; len(cur) > 0; level++ {
		if err := opts.Budget.Check(fmt.Sprintf("sparsify-level-%d", level)); err != nil {
			return err
		}
		lsp := opts.Trace.Startf("level-%d", level)
		done := sparsifyLevel(g, &cur, level, scale, opts, res)
		lsp.End()
		if done.err != nil || done.stop {
			return done.err
		}
	}
	return nil
}

type levelOutcome struct {
	stop bool
	err  error
}

// sparsifyLevel runs one decomposition level; split out of sparsifyClass so
// each level is one trace span with a single entry and exit.
func sparsifyLevel(g *graph.Graph, curp *[]int, level int, scale float64, opts Options, res *Result) levelOutcome {
	cur := *curp
	if level >= maxLevels(g.M()) {
		// Safety valve: copy the few remaining edges verbatim. A
		// subgraph copied at original weight only helps the sandwich.
		for _, id := range cur {
			e := g.Edge(id)
			res.H.MustAddEdge(e.U, e.V, e.W)
		}
		res.LeftoverEdges += len(cur)
		return levelOutcome{stop: true}
	}
	res.Levels++

	// Build the class subgraph of this level (unweighted view).
	edges := make([]graph.Edge, len(cur))
	for k, id := range cur {
		e := g.Edge(id)
		edges[k] = graph.Edge{U: e.U, V: e.V, W: 1}
	}
	lv, err := graph.FromEdges(g.N(), edges)
	if err != nil {
		return levelOutcome{err: err}
	}
	phi := expander.PhiForEps(levelEps, lv.M())
	dec, err := expander.Decompose(lv, phi)
	if err != nil {
		return levelOutcome{err: err}
	}
	if opts.Ledger != nil {
		opts.Ledger.Add("sparsify-decomp", rounds.Charged,
			rounds.ExpanderDecompRounds(g.N(), levelEps, gamma), rounds.CiteCS20)
		// One broadcast round: every node announces its part id and
		// degree, making the product demand graphs globally known. Under a
		// fault plan the reliable layer retransmits until the values are
		// identical to the clean broadcast.
		net := cc.Net{Transport: opts.Transport, Faults: opts.Faults, Ledger: opts.Ledger}
		if _, _, err := net.Broadcast(g.N(), make([]int64, g.N()), "sparsify-bcast"); err != nil {
			return levelOutcome{err: err}
		}
	}
	if frac := dec.CrossingFraction(lv.M()); frac > levelEps {
		return levelOutcome{err: fmt.Errorf("crossing fraction %.3f exceeds eps %.3f at level %d", frac, levelEps, level)}
	}

	// Each certified part adds its product-demand piece to H, in part order.
	for _, part := range dec.Parts {
		if len(part) < 2 {
			continue
		}
		sub, orig, err := lv.Subgraph(part)
		if err != nil {
			return levelOutcome{err: err}
		}
		if sub.M() == 0 {
			continue
		}
		res.Parts++
		productDemandSparsifier(res.H, sub, orig, scale)
	}

	*curp = dec.Crossing
	return levelOutcome{}
}

// productDemandSparsifier adds to h a sparse deterministic approximation
// of the product demand graph H(d) of sub, where d is sub's (unweighted)
// degree vector and edge {u,v} has weight d_u*d_v/vol, scaled by scale.
// Vertex u of sub is vertex orig[u] of h. Parts up to smallPartCutoff
// vertices get the exact product demand graph; larger parts get the
// bucketed weighted-expander construction.
func productDemandSparsifier(h, sub *graph.Graph, orig []int, scale float64) {
	k := sub.N()
	vol := float64(2 * sub.M())
	deg := make([]float64, k)
	var support []int
	for v := 0; v < k; v++ {
		deg[v] = float64(sub.Degree(v))
		if deg[v] > 0 {
			support = append(support, v)
		}
	}
	add := func(u, v int, w float64) { h.MustAddEdge(orig[u], orig[v], w*scale) }
	if len(support) < 2 {
		return
	}
	if len(support) <= smallPartCutoff {
		for i := 0; i < len(support); i++ {
			for j := i + 1; j < len(support); j++ {
				u, v := support[i], support[j]
				add(u, v, deg[u]*deg[v]/vol)
			}
		}
		return
	}

	// Bucket the support by degree (powers of two).
	buckets := make(map[int][]int)
	for _, v := range support {
		b := int(math.Floor(math.Log2(deg[v])))
		buckets[b] = append(buckets[b], v)
	}
	keys := make([]int, 0, len(buckets))
	for b := range buckets {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	for _, b := range keys {
		sort.Ints(buckets[b])
	}

	// Intra-bucket: a circulant expander reweighted to preserve each
	// vertex's weighted degree toward its own bucket.
	for _, b := range keys {
		vs := buckets[b]
		if len(vs) < 2 {
			continue
		}
		jumps := graph.GeometricJumps(len(vs))
		degC := 0
		for _, j := range jumps {
			if 2*j == len(vs) {
				degC++
			} else {
				degC += 2
			}
		}
		boost := float64(len(vs)-1) / float64(degC)
		for _, j := range jumps {
			for i := range vs {
				if 2*j == len(vs) && i >= len(vs)/2 {
					continue
				}
				u, v := vs[i], vs[(i+j)%len(vs)]
				if u == v {
					continue
				}
				add(u, v, deg[u]*deg[v]/vol*boost)
			}
		}
	}

	// Inter-bucket: balanced cyclic connectors between every bucket pair,
	// reweighted so each pair's total weight equals the complete bipartite
	// product demand weight between the buckets.
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			small, big := buckets[keys[i]], buckets[keys[j]]
			if len(small) > len(big) {
				small, big = big, small
			}
			var dSmall, dBig float64
			for _, v := range small {
				dSmall += deg[v]
			}
			for _, v := range big {
				dBig += deg[v]
			}
			totalWeight := dSmall * dBig / vol
			// Each small-bucket vertex connects to `fan` cyclically spaced
			// big-bucket vertices; fan >= 2 keeps the connector expanding.
			fan := 2
			if len(big) < fan {
				fan = len(big)
			}
			type pair struct{ u, v int }
			conns := make([]pair, 0, len(small)*fan)
			var rawTotal float64
			for si, u := range small {
				for f := 0; f < fan; f++ {
					v := big[(si*fan+f*7+si/len(big)+f)%len(big)]
					conns = append(conns, pair{u, v})
					rawTotal += deg[u] * deg[v]
				}
			}
			if rawTotal == 0 {
				continue
			}
			for _, c := range conns {
				w := deg[c.u] * deg[c.v] / rawTotal * totalWeight
				if w > 0 {
					add(c.u, c.v, w)
				}
			}
		}
	}
}

// MeasureAlpha estimates the effective approximation factor alpha of h for
// g by pencil eigenvalue bounds: the smallest alpha with
// (1/alpha) L_H <= L_G <= alpha L_H on the measured spectrum. Both graphs
// must be connected with the same vertex set. iters controls power-
// iteration accuracy (100-300 is typical). The pencil solves are exact
// factored solves up to linalg.FactorMaxN vertices and CG to 1e-11 above
// (linalg.LaplacianSolver).
func MeasureAlpha(g, h *graph.Graph, iters int) (float64, error) {
	if g.N() != h.N() {
		return 0, fmt.Errorf("sparsify: vertex counts differ: %d vs %d", g.N(), h.N())
	}
	lg := linalg.NewLaplacian(g)
	lh := linalg.NewLaplacian(h)
	lamMin, lamMax, err := linalg.PencilBounds(lg, lh,
		linalg.LaplacianSolver(lg, 1e-11), linalg.LaplacianSolver(lh, 1e-11), iters)
	if err != nil {
		return 0, fmt.Errorf("sparsify: alpha measurement: %w", err)
	}
	if lamMin <= 0 || lamMax <= 0 {
		return 0, fmt.Errorf("sparsify: degenerate pencil bounds [%v, %v]", lamMin, lamMax)
	}
	return linalg.EffectiveAlpha(lamMin, lamMax), nil
}

// MeasureAlphaLanczos is MeasureAlpha accelerated by the generalized
// Lanczos pencil estimator, with a power-iteration guardrail: Krylov
// recurrences amplify inner-solver noise on pencils with extreme weight
// ranges (exactly what the CGLN chain produces) and can report spurious
// extremes, so the Lanczos bounds are accepted only when they extend the
// power-iteration bounds by a bounded factor; otherwise the robust power
// estimate is used. k is the Krylov dimension (30-80 typical).
func MeasureAlphaLanczos(g, h *graph.Graph, k int) (float64, error) {
	if g.N() != h.N() {
		return 0, fmt.Errorf("sparsify: vertex counts differ: %d vs %d", g.N(), h.N())
	}
	lg := linalg.NewLaplacian(g)
	lh := linalg.NewLaplacian(h)
	aSolve := linalg.LaplacianSolver(lg, 1e-12)
	bSolve := linalg.LaplacianSolver(lh, 1e-12)
	pLo, pHi, err := linalg.PencilBounds(lg, lh, aSolve, bSolve, 80)
	if err != nil {
		return 0, fmt.Errorf("sparsify: alpha measurement: %w", err)
	}
	lLo, lHi, lerr := linalg.PencilBoundsLanczos(lg, lh, aSolve, bSolve, k)
	lo, hi := pLo, pHi
	if lerr == nil && lLo > 0 && lHi > 0 {
		// Lanczos legitimately sees *more* spectrum than a short power
		// iteration, but not orders of magnitude more on one estimate.
		if lHi >= pHi && lHi <= 3*pHi {
			hi = lHi
		}
		if lLo <= pLo && lLo >= pLo/3 {
			lo = lLo
		}
	}
	if lo <= 0 || hi <= 0 {
		return 0, fmt.Errorf("sparsify: degenerate pencil bounds [%v, %v]", lo, hi)
	}
	return linalg.EffectiveAlpha(lo, hi), nil
}
