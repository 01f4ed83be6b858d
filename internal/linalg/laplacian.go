package linalg

import (
	"fmt"
	"math"
	"sync"

	"lapcc/internal/graph"
)

// Operator is a symmetric linear operator on R^n, the abstraction consumed
// by the iterative solvers. Laplacians, dense matrices, and composed
// preconditioned operators all implement it.
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

	pool *Pool // nil = sequential Apply (the historical path)

	// CSR over pair incidences, built only when a pool is attached to an
	// operator with more than one row block: row u lists the pairs touching
	// u in ascending pair order, which makes the row-parallel Apply
	// accumulate each dst[u] in exactly the sequential pair loop's
	// floating-point order (owner-computes, no merge).
	rowPtr   []int32 // n+1 offsets into rowPair/rowOther
	rowPair  []int32 // pair index per incidence
	rowOther []int32 // opposite endpoint per incidence
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
	l.rowPtr = nil // pair indices changed; rebuild incidence rows if pooled
	if l.blocked() {
		l.buildRows()
	}
}

// blocked reports whether Apply takes the row-parallel path: a pool is
// attached and the output spans more than one row block. A single block
// has nothing to split, so it runs the sequential pair loop — the same bits
// without the CSR indirection or a dispatched closure.
func (l *Laplacian) blocked() bool {
	return l.pool != nil && l.g.N() > applyRowBlock
}

// buildRows constructs the CSR incidence rows over the coalesced pairs.
// Filling in ascending pair order keeps each row's pair list sorted, the
// property the parallel Apply's bit-identity rests on.
func (l *Laplacian) buildRows() {
	n := l.g.N()
	ptr := make([]int32, n+1)
	for i := range l.cu {
		ptr[l.cu[i]+1]++
		ptr[l.cv[i]+1]++
	}
	for v := 0; v < n; v++ {
		ptr[v+1] += ptr[v]
	}
	nnz := ptr[n]
	l.rowPtr = ptr
	l.rowPair = make([]int32, nnz)
	l.rowOther = make([]int32, nnz)
	fill := make([]int32, n)
	copy(fill, ptr[:n])
	for i := range l.cu {
		u, v := l.cu[i], l.cv[i]
		l.rowPair[fill[u]], l.rowOther[fill[u]] = int32(i), v
		fill[u]++
		l.rowPair[fill[v]], l.rowOther[fill[v]] = int32(i), u
		fill[v]++
	}
}

// SetPool attaches a worker pool for Apply and Quad (nil reverts to the
// sequential path). Attaching a pool to an operator with more than one row
// block builds the CSR incidence rows once, so concurrent Applies afterwards
// are read-only on the operator. Results are bit-identical with and without
// a pool; see parallel.go for the contract.
func (l *Laplacian) SetPool(p *Pool) {
	l.pool = p
	if l.blocked() && l.rowPtr == nil {
		l.buildRows()
	}
}

// Pool returns the attached worker pool (nil when sequential).
func (l *Laplacian) Pool() *Pool { return l.pool }

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

// applyRowBlock is the vertex-block grain of the row-parallel Apply. Blocks
// are claimed dynamically, so ragged incidence rows balance out; the value
// only shifts scheduling, never results.
const applyRowBlock = 512

// Apply computes dst = L*src. Without a pool, or when dst fits in one row
// block, it runs the sequential coalesced-pair loop; otherwise it sweeps the
// CSR incidence rows with the output partitioned across workers. The two
// paths accumulate every dst[u] in the same floating-point order — diagonal
// first, then the incident pairs by ascending pair index — so Apply is
// bit-identical at any worker count.
func (l *Laplacian) Apply(dst, src Vec) {
	kernelCalls(kernelApply)
	if !l.blocked() {
		for i := range dst {
			dst[i] = l.deg[i] * src[i]
		}
		cu, cv := l.cu, l.cv
		for i, w := range l.cw {
			u, v := cu[i], cv[i]
			dst[u] -= w * src[v]
			dst[v] -= w * src[u]
		}
		return
	}
	n := len(dst)
	nb := (n + applyRowBlock - 1) / applyRowBlock
	l.pool.ForBlocks(nb, func(b int) {
		lo, hi := b*applyRowBlock, (b+1)*applyRowBlock
		if hi > n {
			hi = n
		}
		for u := lo; u < hi; u++ {
			s := l.deg[u] * src[u]
			for k := l.rowPtr[u]; k < l.rowPtr[u+1]; k++ {
				s -= l.cw[l.rowPair[k]] * src[l.rowOther[k]]
			}
			dst[u] = s
		}
	})
}

// Quad returns the quadratic form x^T L x = sum_e w_e (x_u - x_v)^2,
// computed in the numerically stable edge-difference form under the fixed
// block partition of parallel.go (edge lists up to one block reduce in plain
// order; the partition depends only on m, so the result is bit-identical at
// any worker count).
func (l *Laplacian) Quad(x Vec) float64 {
	edges := l.g.Edges()
	m := len(edges)
	if m <= reduceBlock {
		var q float64
		for _, e := range edges {
			d := x[e.U] - x[e.V]
			q += e.W * d * d
		}
		return q
	}
	nb := reduceBlocks(m)
	sp := getParts(nb)
	parts := *sp
	l.pool.ForBlocks(nb, func(b int) {
		lo, hi := blockSpan(m, b)
		var q float64
		for _, e := range edges[lo:hi] {
			d := x[e.U] - x[e.V]
			q += e.W * d * d
		}
		parts[b] = q
	})
	r := treeReduce(parts)
	partsPool.Put(sp)
	return r
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

// ScaledOperator wraps A with a scalar multiple: (c*A) x = c * (A x). It is
// stateless, so concurrent Applies are safe whenever A's are.
type ScaledOperator struct {
	A Operator
	C float64
}

var _ Operator = (*ScaledOperator)(nil)

// Dim returns the dimension of the wrapped operator.
func (s *ScaledOperator) Dim() int { return s.A.Dim() }

// Apply computes dst = C * (A * src).
func (s *ScaledOperator) Apply(dst, src Vec) {
	s.A.Apply(dst, src)
	dst.Scale(s.C)
}

// SumOperator is the sum of operators of equal dimension. Apply draws its
// scratch vector from a per-operator pool instead of a shared field, so
// concurrent Applies of one composed operator — the per-slot session solves
// run in parallel — each work on private scratch and are safe whenever the
// terms' Applies are.
type SumOperator struct {
	Terms   []Operator
	scratch sync.Pool // of Vec sized to Dim()
}

var _ Operator = (*SumOperator)(nil)

// NewSumOperator returns the operator summing the given terms. All terms
// must have the same dimension.
func NewSumOperator(terms ...Operator) (*SumOperator, error) {
	if len(terms) == 0 {
		return nil, fmt.Errorf("linalg: sum of zero operators")
	}
	n := terms[0].Dim()
	for _, t := range terms[1:] {
		if t.Dim() != n {
			return nil, fmt.Errorf("linalg: operator dimensions %d and %d differ", n, t.Dim())
		}
	}
	return &SumOperator{Terms: terms}, nil
}

// Dim returns the common dimension.
func (s *SumOperator) Dim() int { return s.Terms[0].Dim() }

// Apply computes dst = sum_i (term_i * src).
func (s *SumOperator) Apply(dst, src Vec) {
	tmp, _ := s.scratch.Get().(Vec)
	if len(tmp) != len(dst) {
		tmp = NewVec(len(dst))
	}
	dst.Zero()
	for _, t := range s.Terms {
		t.Apply(tmp, src)
		dst.AXPY(1, tmp)
	}
	s.scratch.Put(tmp)
}
