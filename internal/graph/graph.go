// Package graph provides the weighted graph representations used throughout
// the library: undirected weighted graphs for spectral algorithms
// (sparsification, Laplacian solving) and directed capacitated graphs for
// flow algorithms.
//
// Vertices are identified by dense integer indices 0..n-1, matching the
// congested-clique convention that node i of the clique hosts vertex i and
// initially knows exactly the edges incident to it.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Edge is an undirected weighted edge between vertices U and V.
// The pair is stored with U < V after normalization.
type Edge struct {
	U, V int
	W    float64
}

// Graph is an undirected weighted multigraph on n vertices. It keeps both an
// edge list (for algorithms that iterate edges, e.g. sparsification) and an
// adjacency structure (for traversals). Self-loops are rejected because they
// contribute nothing to a Laplacian; parallel edges are allowed.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]Half
	gen   uint64 // topology generation; bumped by edge-endpoint mutations
}

// Half is one endpoint's view of an undirected edge: the opposite endpoint
// and the index of the edge in the graph's edge list.
type Half struct {
	To   int
	Edge int
}

// ErrVertexRange reports a vertex index outside 0..n-1.
var ErrVertexRange = errors.New("graph: vertex index out of range")

// ErrSelfLoop reports an attempt to add a self-loop.
var ErrSelfLoop = errors.New("graph: self-loops are not allowed")

// ErrBadWeight reports a non-positive or non-finite edge weight.
var ErrBadWeight = errors.New("graph: edge weight must be positive and finite")

// New returns an empty undirected graph on n vertices.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([][]Half, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the graph's edge list. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the edge with the given index.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Adj returns the adjacency list of vertex v. The caller must not modify it.
func (g *Graph) Adj(v int) []Half { return g.adj[v] }

// Degree returns the number of edge endpoints at v (parallel edges count
// separately).
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// WeightedDegree returns the sum of weights of edges incident to v.
func (g *Graph) WeightedDegree(v int) float64 {
	var d float64
	for _, h := range g.adj[v] {
		d += g.edges[h.Edge].W
	}
	return d
}

// AddEdge adds an undirected edge {u,v} with weight w and returns its index.
func (g *Graph) AddEdge(u, v int, w float64) (int, error) {
	if err := checkEdge(g.n, u, v, w); err != nil {
		return 0, err
	}
	if u > v {
		u, v = v, u
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, W: w})
	g.adj[u] = append(g.adj[u], Half{To: v, Edge: id})
	g.adj[v] = append(g.adj[v], Half{To: u, Edge: id})
	g.gen++
	return id, nil
}

// checkEdge validates edge {u,v} of weight w for an n-vertex graph, as
// AddEdge requires.
func checkEdge(n, u, v int, w float64) error {
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("%w: {%d,%d} with n=%d", ErrVertexRange, u, v, n)
	}
	if u == v {
		return fmt.Errorf("%w: vertex %d", ErrSelfLoop, u)
	}
	if !(w > 0) || w != w || w > 1e300 {
		return fmt.Errorf("%w: %v", ErrBadWeight, w)
	}
	return nil
}

// FromEdges returns the graph on n vertices with the given edges, in order:
// the graph that New(n) and one AddEdge per edge build — the same edge
// list, each pair normalized to U < V, the same adjacency order and Gen —
// or the error AddEdge gives the first edge it would reject. Every
// adjacency list is a capacity-capped window of one array, so the build
// allocates a fixed handful of times however many edges there are, and a
// later AddEdge reallocates the list it grows instead of overwriting a
// neighbor's.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	deg := make([]int, n)
	for _, e := range edges {
		if err := checkEdge(n, e.U, e.V, e.W); err != nil {
			return nil, err
		}
		deg[e.U]++
		deg[e.V]++
	}
	g := &Graph{n: n, adj: make([][]Half, n), gen: uint64(len(edges))}
	if len(edges) == 0 {
		return g, nil
	}
	g.edges = make([]Edge, len(edges))
	halves := make([]Half, 2*len(edges))
	off := 0
	for v, d := range deg {
		if d > 0 {
			g.adj[v] = halves[off : off : off+d]
			off += d
		}
	}
	for id, e := range edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		g.edges[id] = Edge{U: u, V: v, W: e.W}
		g.adj[u] = append(g.adj[u], Half{To: v, Edge: id})
		g.adj[v] = append(g.adj[v], Half{To: u, Edge: id})
	}
	return g, nil
}

// Gen returns the graph's topology generation: a counter bumped by every
// mutation that changes edge endpoints (AddEdge, RewireEdge) but not by
// weight-only updates (SetWeight, SetWeights). Caches keyed on the topology
// — the Laplacian's coalesced pair groups foremost — compare generations
// instead of edge counts, so a rewire that keeps M constant still
// invalidates them.
func (g *Graph) Gen() uint64 { return g.gen }

// RewireEdge moves edge i to the endpoints {u,v}, keeping its index and
// weight. The endpoints are validated exactly like AddEdge's and normalized
// to U < V; the adjacency halves of the old endpoints are removed and the
// new ones appended. Rewiring changes the topology without changing M, so it
// bumps the generation counter — operators caching topology-derived state
// must Refresh against Gen, not M.
func (g *Graph) RewireEdge(i, u, v int) error {
	if i < 0 || i >= len(g.edges) {
		return fmt.Errorf("graph: edge index %d out of range (m=%d)", i, len(g.edges))
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("%w: {%d,%d} with n=%d", ErrVertexRange, u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("%w: vertex %d", ErrSelfLoop, u)
	}
	if u > v {
		u, v = v, u
	}
	old := g.edges[i]
	g.dropHalf(old.U, i)
	g.dropHalf(old.V, i)
	g.edges[i].U, g.edges[i].V = u, v
	g.adj[u] = append(g.adj[u], Half{To: v, Edge: i})
	g.adj[v] = append(g.adj[v], Half{To: u, Edge: i})
	g.gen++
	return nil
}

// dropHalf removes vertex w's adjacency half of edge i, preserving the
// relative order of the remaining halves.
func (g *Graph) dropHalf(w, i int) {
	hs := g.adj[w]
	for k, h := range hs {
		if h.Edge == i {
			g.adj[w] = append(hs[:k], hs[k+1:]...)
			return
		}
	}
}

// SetWeight replaces the weight of edge i in place, keeping the topology
// (endpoints, edge index, adjacency) untouched. This is the primitive behind
// the build-once/solve-many session layer: reweighting a graph whose
// structure is fixed must not reallocate anything. The weight is validated
// exactly like AddEdge's.
func (g *Graph) SetWeight(i int, w float64) error {
	if i < 0 || i >= len(g.edges) {
		return fmt.Errorf("graph: edge index %d out of range (m=%d)", i, len(g.edges))
	}
	if !(w > 0) || w != w || w > 1e300 {
		return fmt.Errorf("%w: %v", ErrBadWeight, w)
	}
	g.edges[i].W = w
	return nil
}

// SetWeights replaces every edge weight in one pass — the bulk form of
// SetWeight for session reweights, where the per-edge call overhead is
// measurable against the O(m) work itself. w is indexed by edge id and
// validated exactly like AddEdge's weights; on error the graph is left
// partially updated, matching a SetWeight loop that stops at the bad edge.
func (g *Graph) SetWeights(w []float64) error {
	if len(w) != len(g.edges) {
		return fmt.Errorf("graph: %d weights for %d edges", len(w), len(g.edges))
	}
	for i, x := range w {
		if !(x > 0) || x != x || x > 1e300 {
			return fmt.Errorf("edge %d: %w: %v", i, ErrBadWeight, x)
		}
		g.edges[i].W = x
	}
	return nil
}

// Weights returns a fresh slice with the current edge weights, indexed by
// edge id — the reference vector session layers diff against on Reweight.
func (g *Graph) Weights() []float64 {
	ws := make([]float64, len(g.edges))
	for i, e := range g.edges {
		ws[i] = e.W
	}
	return ws
}

// MustAddEdge is AddEdge for construction code with statically valid inputs.
// It panics on error and is intended for tests and generators only; code
// building graphs from external or user-supplied input must use AddEdge and
// handle the returned error, which is always one of the typed sentinels
// (ErrVertexRange, ErrSelfLoop, ErrBadWeight).
func (g *Graph) MustAddEdge(u, v int, w float64) int {
	id, err := g.AddEdge(u, v, w)
	if err != nil {
		panic(err)
	}
	return id
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var t float64
	for _, e := range g.edges {
		t += e.W
	}
	return t
}

// MaxWeight returns the maximum edge weight, or 0 for an empty graph.
func (g *Graph) MaxWeight() float64 {
	var mx float64
	for _, e := range g.edges {
		if e.W > mx {
			mx = e.W
		}
	}
	return mx
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.edges = append([]Edge(nil), g.edges...)
	for v := range g.adj {
		c.adj[v] = append([]Half(nil), g.adj[v]...)
	}
	c.gen = g.gen
	return c
}

// Subgraph returns the induced subgraph on the given vertices, along with the
// mapping from new vertex indices to original ones. Vertices may be given in
// any order; duplicates are an error.
func (g *Graph) Subgraph(vs []int) (*Graph, []int, error) {
	idx := make(map[int]int, len(vs))
	orig := make([]int, len(vs))
	for i, v := range vs {
		if v < 0 || v >= g.n {
			return nil, nil, fmt.Errorf("%w: %d", ErrVertexRange, v)
		}
		if _, dup := idx[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d in subgraph", v)
		}
		idx[v] = i
		orig[i] = v
	}
	s := New(len(vs))
	for _, e := range g.edges {
		iu, uok := idx[e.U]
		iv, vok := idx[e.V]
		if uok && vok {
			s.MustAddEdge(iu, iv, e.W)
		}
	}
	return s, orig, nil
}

// Components returns the connected components as slices of vertex indices,
// each sorted ascending, ordered by smallest contained vertex.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	queue := make([]int, 0, g.n)
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue = append(queue[:0], s)
		comp := []int{s}
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, h := range g.adj[v] {
				if !seen[h.To] {
					seen[h.To] = true
					comp = append(comp, h.To)
					queue = append(queue, h.To)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether the graph has exactly one connected component
// (the empty graph on 0 vertices counts as connected).
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return true
	}
	return len(g.Components()) == 1
}

// IsEulerian reports whether every vertex has even degree. (Connectivity is
// not required: the Eulerian orientation algorithm works per component.)
func (g *Graph) IsEulerian() bool {
	for v := 0; v < g.n; v++ {
		if len(g.adj[v])%2 != 0 {
			return false
		}
	}
	return true
}

// Volume returns the sum of degrees of the given vertex set.
func (g *Graph) Volume(vs []int) int {
	var vol int
	for _, v := range vs {
		vol += len(g.adj[v])
	}
	return vol
}
