package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lapcc/internal/graph"
)

func TestVecBasicOps(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := v.Sum(); got != 6 {
		t.Fatalf("Sum = %v, want 6", got)
	}
	if got := v.Mean(); got != 2 {
		t.Fatalf("Mean = %v, want 2", got)
	}
	if got := w.NormInf(); got != 6 {
		t.Fatalf("NormInf = %v, want 6", got)
	}
	s := v.Sub(w)
	if s[0] != -3 || s[1] != -3 || s[2] != -3 {
		t.Fatalf("Sub = %v", s)
	}
	a := v.Add(w)
	if a[0] != 5 || a[1] != 7 || a[2] != 9 {
		t.Fatalf("Add = %v", a)
	}
	v.AXPY(2, w)
	if v[0] != 9 || v[1] != 12 || v[2] != 15 {
		t.Fatalf("AXPY = %v", v)
	}
	v.Scale(0.5)
	if v[0] != 4.5 {
		t.Fatalf("Scale = %v", v)
	}
	v.Zero()
	if v.Norm2() != 0 {
		t.Fatalf("Zero left %v", v)
	}
}

func TestVecCloneIndependent(t *testing.T) {
	v := Vec{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestVecMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot length mismatch should panic")
		}
	}()
	Vec{1}.Dot(Vec{1, 2})
}

func TestRemoveMean(t *testing.T) {
	v := Vec{1, 2, 3, 6}
	v.RemoveMean()
	if math.Abs(v.Sum()) > 1e-12 {
		t.Fatalf("sum after RemoveMean = %v", v.Sum())
	}
}

func TestRemoveMeanOn(t *testing.T) {
	v := Vec{1, 3, 10, 30}
	comp := []int{0, 0, 1, 1}
	v.RemoveMeanOn(comp, 2)
	if v[0] != -1 || v[1] != 1 {
		t.Fatalf("component 0 = %v %v", v[0], v[1])
	}
	if v[2] != -10 || v[3] != 10 {
		t.Fatalf("component 1 = %v %v", v[2], v[3])
	}
}

func TestIsFinite(t *testing.T) {
	if !(Vec{1, 2}).IsFinite() {
		t.Fatal("finite vector reported non-finite")
	}
	if (Vec{1, math.NaN()}).IsFinite() {
		t.Fatal("NaN not detected")
	}
	if (Vec{math.Inf(1)}).IsFinite() {
		t.Fatal("Inf not detected")
	}
}

// Property: RemoveMean is idempotent and norm-nonincreasing.
func TestRemoveMeanProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		v := Vec(raw).Clone()
		for i := range v {
			if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
				v[i] = 0
			}
			// Bound magnitudes so the mean subtraction stays well-conditioned.
			v[i] = math.Mod(v[i], 1e6)
		}
		before := v.Norm2()
		v.RemoveMean()
		after := v.Norm2()
		once := v.Clone()
		v.RemoveMean()
		for i := range v {
			if math.Abs(v[i]-once[i]) > 1e-9*(1+math.Abs(once[i])) {
				return false
			}
		}
		return after <= before*(1+1e-12)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func randomVec(n int, seed int64) Vec {
	rng := rand.New(rand.NewSource(seed))
	v := NewVec(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestTreeReduce pins the fixed combine schedule: pairwise in block order,
// odd leftover carried to the next level. The schedule is part of the
// numeric contract — changing it changes the bits of every blocked
// reduction.
func TestTreeReduce(t *testing.T) {
	parts := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	want := ((0.1 + 0.2) + (0.3 + 0.4)) + 0.5
	if got := treeReduce(append([]float64(nil), parts...)); got != want {
		t.Fatalf("treeReduce = %v, want %v (fixed pairwise order)", got, want)
	}
	if got := treeReduce(nil); got != 0 {
		t.Fatalf("treeReduce(nil) = %v", got)
	}
	if got := treeReduce([]float64{42}); got != 42 {
		t.Fatalf("treeReduce([42]) = %v", got)
	}
}

// TestBlockReductionTree pins the bits of the reductions over more than
// one block: at 1, 2 and 4 blocks, Dot, Sum and Laplacian.Quad equal the
// explicit pairwise tree over their block partials, each partial a plain
// left-to-right sum over its block. The 4-block data is checked to round
// differently under a plain loop over all entries, so replacing the tree
// with one fails here.
func TestBlockReductionTree(t *testing.T) {
	tree := func(p []float64) float64 {
		switch len(p) {
		case 1:
			return p[0]
		case 2:
			return p[0] + p[1]
		case 4:
			return (p[0] + p[1]) + (p[2] + p[3])
		}
		t.Fatalf("no explicit tree for %d blocks", len(p))
		return 0
	}
	// blocks returns the per-block plain sums of term(i) over [0, n), and
	// the plain sum over all of [0, n).
	blocks := func(n int, term func(i int) float64) (parts []float64, plain float64) {
		for lo := 0; lo < n; lo += reduceBlock {
			var s float64
			for i := lo; i < min(lo+reduceBlock, n); i++ {
				s += term(i)
				plain += term(i)
			}
			parts = append(parts, s)
		}
		return parts, plain
	}
	for _, n := range []int{reduceBlock, reduceBlock + 1, 3*reduceBlock + 17} {
		v, w := randomVec(n, 1), randomVec(n, 2)
		rng := rand.New(rand.NewSource(3))
		g := graph.New(64)
		for g.M() < n {
			if a, b := rng.Intn(64), rng.Intn(64); a != b {
				g.MustAddEdge(a, b, 0.5+rng.Float64())
			}
		}
		x := randomVec(g.N(), 4)
		edges := g.Edges()

		dots, plainDot := blocks(n, func(i int) float64 { return v[i] * w[i] })
		sums, plainSum := blocks(n, func(i int) float64 { return v[i] })
		quads, plainQuad := blocks(n, func(i int) float64 {
			d := x[edges[i].U] - x[edges[i].V]
			return edges[i].W * d * d
		})
		if got, want := v.Dot(w), tree(dots); got != want {
			t.Fatalf("n=%d: Dot = %v, block tree %v", n, got, want)
		}
		if got, want := v.Sum(), tree(sums); got != want {
			t.Fatalf("n=%d: Sum = %v, block tree %v", n, got, want)
		}
		if got, want := NewLaplacian(g).Quad(x), tree(quads); got != want {
			t.Fatalf("n=%d: Quad = %v, block tree %v", n, got, want)
		}
		if len(dots) == 4 && (plainDot == tree(dots) || plainSum == tree(sums) || plainQuad == tree(quads)) {
			t.Fatalf("n=%d: a plain loop rounds like the block tree (dot %v, sum %v, quad %v): the data cannot tell them apart",
				n, plainDot == tree(dots), plainSum == tree(sums), plainQuad == tree(quads))
		}
	}
}

// TestRemoveMeanOnEmptyGroup pins the empty-group guard: a component id
// range with an unpopulated id must not form the 0/0 mean (NaN would
// poison nothing today only by accident of iteration order).
func TestRemoveMeanOnEmptyGroup(t *testing.T) {
	v := Vec{1, 3, 10, 14}
	comp := []int{0, 0, 2, 2} // group 1 is empty
	v.RemoveMeanOn(comp, 3)
	want := Vec{-1, 1, -2, 2}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("RemoveMeanOn = %v, want %v", v, want)
		}
	}
	if !v.IsFinite() {
		t.Fatalf("empty group injected a non-finite value: %v", v)
	}
}
