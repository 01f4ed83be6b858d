package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// addEdges builds the graph of edges one AddEdge at a time, stopping at
// the first error.
func addEdges(n int, edges []Edge) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if _, err := g.AddEdge(e.U, e.V, e.W); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// sameGraph fails unless a and b have the same vertex count, edge list,
// adjacency lists and generation.
func sameGraph(t *testing.T, label string, a, b *Graph) {
	t.Helper()
	if a.N() != b.N() || !reflect.DeepEqual(a.Edges(), b.Edges()) || a.Gen() != b.Gen() {
		t.Fatalf("%s: n %d/%d, gen %d/%d, edges\n%v\nvs\n%v", label, a.N(), b.N(), a.Gen(), b.Gen(), a.Edges(), b.Edges())
	}
	for v := 0; v < a.N(); v++ {
		if !reflect.DeepEqual(a.Adj(v), b.Adj(v)) {
			t.Fatalf("%s: vertex %d adjacency %v, want %v", label, v, a.Adj(v), b.Adj(v))
		}
	}
}

// TestFromEdgesMatchesAddEdge builds random multigraphs — parallel edges,
// both endpoint orders, isolated vertices — with FromEdges and with one
// AddEdge per edge: edges, every adjacency list and Gen agree, also after
// further AddEdge calls and a RewireEdge on both, which must grow each
// list without touching its neighbors' windows.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		edges := make([]Edge, rng.Intn(4*n))
		for i := range edges {
			u, v := rng.Intn(n), rng.Intn(n-1)
			if v >= u {
				v++
			}
			edges[i] = Edge{U: u, V: v, W: 1 + float64(rng.Intn(5))}
		}
		got, err := FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := addEdges(n, edges)
		sameGraph(t, "built", got, want)
		for k := 0; k < 3; k++ {
			u, v := rng.Intn(n), rng.Intn(n-1)
			if v >= u {
				v++
			}
			got.MustAddEdge(u, v, 2)
			want.MustAddEdge(u, v, 2)
			sameGraph(t, "after AddEdge", got, want)
		}
		if i := rng.Intn(got.M()); got.M() > 1 {
			e := got.Edge((i + 1) % got.M())
			if err := got.RewireEdge(i, e.U, e.V); err != nil {
				t.Fatal(err)
			}
			if err := want.RewireEdge(i, e.U, e.V); err != nil {
				t.Fatal(err)
			}
			sameGraph(t, "after RewireEdge", got, want)
		}
	}
}

// TestFromEdgesErrors: FromEdges rejects exactly what AddEdge rejects, with
// the error AddEdge gives the first bad edge.
func TestFromEdgesErrors(t *testing.T) {
	good := []Edge{{0, 1, 1}, {2, 1, 3}}
	for _, bad := range []Edge{
		{-1, 1, 1}, {0, 3, 1}, {2, 2, 1},
		{0, 1, 0}, {0, 1, -2}, {0, 1, math.NaN()}, {0, 1, math.Inf(1)}, {0, 1, 2e300},
	} {
		edges := append(append([]Edge{}, good...), bad, Edge{3, 3, -1})
		_, err := FromEdges(3, edges)
		_, want := addEdges(3, edges)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("edge %v: FromEdges error %v, AddEdge error %v", bad, err, want)
		}
	}
	if g, err := FromEdges(4, nil); err != nil || g.M() != 0 || g.Gen() != 0 || g.N() != 4 {
		t.Fatalf("empty edge list: %v, %v", g, err)
	}
}
