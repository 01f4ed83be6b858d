package linalg

import (
	"math"

	"lapcc/internal/graph"
)

// Operator is a symmetric linear operator on R^n, the abstraction consumed
// by the iterative solvers. Laplacians, dense matrices and the pencil
// estimators' B^+ A operator implement it.
type Operator interface {
	// Dim returns n.
	Dim() int
	// Apply computes dst = A*src. dst and src must not alias.
	Apply(dst, src Vec)
}

// Laplacian is the graph Laplacian L = D - A of a weighted undirected graph,
// applied matrix-free from the graph's edge list. In the congested clique,
// one matvec with L_G costs O(1) rounds because node v holds row v.
//
// Parallel edges enter L only through the sum of their weights per vertex
// pair, so Apply runs over a coalesced pair list: the pair grouping is fixed
// by the topology at construction and the summed pair weights are cached
// alongside the degrees. Multigraph supports — such as the flow IPMs', where
// all m preconditioner edges share one endpoint pair — apply in time
// proportional to the number of distinct pairs, not edges. Weight mutations
// (graph.SetWeight) must be followed by Refresh, which recomputes both
// caches in the same edge order as construction, keeping a refreshed
// Laplacian bit-identical to one built fresh on the same weights.
type Laplacian struct {
	g      *graph.Graph
	deg    Vec     // weighted degrees (diagonal of L)
	cu, cv []int32 // coalesced off-diagonal: distinct vertex pairs ...
	cw     Vec     // ... and the summed weight per pair
	egroup []int32 // edge index -> pair index
	gen    uint64  // graph topology generation the pair cache was built at
}

var _ Operator = (*Laplacian)(nil)

// NewLaplacian returns the Laplacian operator of g.
func NewLaplacian(g *graph.Graph) *Laplacian {
	l := &Laplacian{g: g, deg: NewVec(g.N())}
	l.buildPairs()
	l.Refresh()
	return l
}

// buildPairs assigns each edge to its unordered-pair group in
// first-occurrence order. For small vertex counts a dense n^2 table keeps
// this O(n^2 + m) with array-index constants; larger graphs fall back to a
// hash map.
func (l *Laplacian) buildPairs() {
	m := l.g.M()
	n := l.g.N()
	l.egroup = make([]int32, m)
	l.cu = l.cu[:0]
	l.cv = l.cv[:0]
	pair := func(u, v int) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)*int64(n) + int64(v)
	}
	assign := func(i int, u, v int, group int32) int32 {
		if group < 0 {
			group = int32(len(l.cu))
			if u > v {
				u, v = v, u
			}
			l.cu = append(l.cu, int32(u))
			l.cv = append(l.cv, int32(v))
		}
		l.egroup[i] = group
		return group
	}
	if int64(n)*int64(n) <= 1<<18 {
		table := make([]int32, n*n)
		for i := range table {
			table[i] = -1
		}
		for i, e := range l.g.Edges() {
			k := pair(e.U, e.V)
			table[k] = assign(i, e.U, e.V, table[k])
		}
	} else {
		table := make(map[int64]int32, m)
		for i, e := range l.g.Edges() {
			k := pair(e.U, e.V)
			group, ok := table[k]
			if !ok {
				group = -1
			}
			table[k] = assign(i, e.U, e.V, group)
		}
	}
	l.cw = NewVec(len(l.cu))
	l.gen = l.g.Gen()
}

// Graph returns the underlying graph.
func (l *Laplacian) Graph() *graph.Graph { return l.g }

// Refresh recomputes the cached weighted degrees and coalesced pair weights
// from the graph's current edge weights. Call it after mutating weights in
// place (graph.SetWeight); the summations run in the same edge order as
// NewLaplacian, so a refreshed Laplacian is bit-identical to one built fresh
// on the same weights.
//
// The pair grouping itself is rebuilt when the graph's topology generation
// moved since the cache was built. Comparing generations rather than edge
// counts matters: a RewireEdge keeps M constant but changes which pair each
// edge belongs to, and a count-based guard would silently reuse the stale
// grouping and produce a wrong operator.
func (l *Laplacian) Refresh() {
	if len(l.egroup) != l.g.M() || l.gen != l.g.Gen() {
		l.buildPairs() // topology changed since construction
	}
	l.deg.Zero()
	l.cw.Zero()
	for i, e := range l.g.Edges() {
		l.deg[e.U] += e.W
		l.deg[e.V] += e.W
		l.cw[l.egroup[i]] += e.W
	}
}

// Dim returns the number of vertices.
func (l *Laplacian) Dim() int { return l.g.N() }

// Degrees returns the weighted degree vector (the diagonal of L). The caller
// must not modify it.
func (l *Laplacian) Degrees() Vec { return l.deg }

// Apply computes dst = L*src over the coalesced pairs: the diagonal first,
// then each pair's two off-diagonal terms in pair order.
func (l *Laplacian) Apply(dst, src Vec) {
	kernelCalls(kernelApply)
	for i := range dst {
		dst[i] = l.deg[i] * src[i]
	}
	cu, cv := l.cu, l.cv
	for i, w := range l.cw {
		u, v := cu[i], cv[i]
		dst[u] -= w * src[v]
		dst[v] -= w * src[u]
	}
}

// Quad returns the quadratic form x^T L x = sum_e w_e (x_u - x_v)^2,
// computed in the numerically stable edge-difference form under Dot's
// block reduction over the edge list.
func (l *Laplacian) Quad(x Vec) float64 {
	edges := l.g.Edges()
	return blockReduce(len(edges), func(lo, hi int) float64 {
		var q float64
		for _, e := range edges[lo:hi] {
			d := x[e.U] - x[e.V]
			q += e.W * d * d
		}
		return q
	})
}

// Norm returns the L-norm ||x||_L = sqrt(x^T L x).
func (l *Laplacian) Norm(x Vec) float64 { return math.Sqrt(l.Quad(x)) }

// Dense returns the Laplacian as a dense matrix, for small-n verification.
func (l *Laplacian) Dense() *Dense {
	n := l.Dim()
	d := NewDense(n)
	for i := 0; i < n; i++ {
		d.Set(i, i, l.deg[i])
	}
	for _, e := range l.g.Edges() {
		d.Set(e.U, e.V, d.At(e.U, e.V)-e.W)
		d.Set(e.V, e.U, d.At(e.V, e.U)-e.W)
	}
	return d
}
