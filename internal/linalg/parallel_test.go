package linalg

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"lapcc/internal/graph"
)

// bigN is several reduce blocks long plus a ragged tail, so the blocked
// kernels genuinely split work and the fixed partition's last block is
// partial.
const bigN = 3*reduceBlock + 137

func randomVec(n int, seed int64) Vec {
	rng := rand.New(rand.NewSource(seed))
	v := NewVec(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(1); got != 1 {
		t.Fatalf("ResolveWorkers(1) = %d", got)
	}
	if got := ResolveWorkers(5); got != 5 {
		t.Fatalf("ResolveWorkers(5) = %d", got)
	}
	gmp := runtime.GOMAXPROCS(0)
	if got := ResolveWorkers(0); got != gmp {
		t.Fatalf("ResolveWorkers(0) = %d, want GOMAXPROCS %d", got, gmp)
	}
	if got := ResolveWorkers(-3); got != gmp {
		t.Fatalf("ResolveWorkers(-3) = %d, want GOMAXPROCS %d", got, gmp)
	}
}

func TestSharedPool(t *testing.T) {
	if p := SharedPool(1); p != nil {
		t.Fatalf("SharedPool(1) = %v, want nil (sequential runtime)", p)
	}
	p := SharedPool(4)
	if p == nil || p.Workers() != 4 {
		t.Fatalf("SharedPool(4).Workers() = %d", p.Workers())
	}
	if again := SharedPool(4); again != p {
		t.Fatal("SharedPool(4) did not return the registered pool")
	}
	var nilPool *Pool
	if nilPool.Workers() != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", nilPool.Workers())
	}
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

// TestPoolKernelsBitIdentical is the core determinism check of the parallel
// runtime: every kernel must produce bit-for-bit the nil-pool (sequential)
// result at every worker count, on a vector long enough that the blocked
// paths actually engage.
func TestPoolKernelsBitIdentical(t *testing.T) {
	v := randomVec(bigN, 1)
	w := randomVec(bigN, 2)
	var nilPool *Pool

	wantDot := nilPool.Dot(v, w)
	wantSum := nilPool.Sum(v)
	wantNorm := nilPool.Norm2(v)
	wantAXPY := v.Clone()
	nilPool.AXPY(wantAXPY, 0.75, w)
	wantScale := v.Clone()
	nilPool.Scale(wantScale, 1.0/3)
	wantMean := v.Clone()
	nilPool.RemoveMean(wantMean)

	// The package-level Vec methods are defined as the nil-pool kernels.
	if v.Dot(w) != wantDot || v.Sum() != wantSum {
		t.Fatal("Vec.Dot/Sum diverge from the nil-pool kernels")
	}

	for _, workers := range []int{2, 3, 8} {
		p := SharedPool(workers)
		if p == nil {
			t.Fatalf("SharedPool(%d) = nil", workers)
		}
		if got := p.Dot(v, w); got != wantDot {
			t.Fatalf("workers=%d: Dot = %v, want %v", workers, got, wantDot)
		}
		if got := p.Sum(v); got != wantSum {
			t.Fatalf("workers=%d: Sum = %v, want %v", workers, got, wantSum)
		}
		if got := p.Norm2(v); got != wantNorm {
			t.Fatalf("workers=%d: Norm2 = %v, want %v", workers, got, wantNorm)
		}
		axpy := v.Clone()
		p.AXPY(axpy, 0.75, w)
		scale := v.Clone()
		p.Scale(scale, 1.0/3)
		mean := v.Clone()
		p.RemoveMean(mean)
		for i := 0; i < bigN; i++ {
			if axpy[i] != wantAXPY[i] {
				t.Fatalf("workers=%d: AXPY[%d] = %v, want %v", workers, i, axpy[i], wantAXPY[i])
			}
			if scale[i] != wantScale[i] {
				t.Fatalf("workers=%d: Scale[%d] = %v, want %v", workers, i, scale[i], wantScale[i])
			}
			if mean[i] != wantMean[i] {
				t.Fatalf("workers=%d: RemoveMean[%d] = %v, want %v", workers, i, mean[i], wantMean[i])
			}
		}
	}
}

// TestPooledApplyBitIdentical checks the row-parallel CSR Apply against the
// sequential coalesced-pair loop, including through a weight refresh, on
// multigraphs (parallel edges exercise the pair coalescing). The sizes
// straddle the single-block rule: at n = applyRowBlock a pooled Apply takes
// the sequential loop, builds no CSR rows and allocates nothing; one vertex
// more and it splits into row blocks.
func TestPooledApplyBitIdentical(t *testing.T) {
	for _, n := range []int{applyRowBlock, applyRowBlock + 1, 2000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { pooledApplyBitIdentical(t, n) })
	}
}

func pooledApplyBitIdentical(t *testing.T, n int) {
	g, err := graph.ConnectedGNM(n, 6*n, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate some edges so pairs coalesce more than one edge.
	for i := 0; i < n/4; i++ {
		e := g.Edge(i)
		g.MustAddEdge(e.U, e.V, 0.5+float64(i%7))
	}
	l := NewLaplacian(g)
	l.Refresh()
	src := randomVec(g.N(), 4)
	want := NewVec(g.N())
	l.Apply(want, src)

	for _, workers := range []int{2, 3, 8} {
		lp := NewLaplacian(g)
		lp.SetPool(SharedPool(workers))
		lp.Refresh()
		if single := n <= applyRowBlock; single != (lp.rowPtr == nil) {
			t.Fatalf("workers=%d: CSR rows built = %v for %d row block(s)", workers, lp.rowPtr != nil, (n+applyRowBlock-1)/applyRowBlock)
		}
		got := NewVec(g.N())
		lp.Apply(got, src)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: Apply[%d] = %v, want %v", workers, i, got[i], want[i])
			}
		}
		if q, sq := lp.Quad(src), l.Quad(src); q != sq {
			t.Fatalf("workers=%d: Quad = %v, want %v", workers, q, sq)
		}
		if n <= applyRowBlock {
			if a := testing.AllocsPerRun(20, func() { lp.Apply(got, src) }); a != 0 {
				t.Fatalf("workers=%d: single-block pooled Apply allocates %v times", workers, a)
			}
		}

		// Reweight in place and Refresh: still bit-identical.
		for i := 0; i < g.M(); i += 3 {
			if err := g.SetWeight(i, 2.5); err != nil {
				t.Fatal(err)
			}
		}
		l.Refresh()
		lp.Refresh()
		l.Apply(want, src)
		lp.Apply(got, src)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d after refresh: Apply[%d] = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRefreshAfterRewire is the regression test for the stale-pair-cache
// bug: RewireEdge keeps M constant, so the old `len(egroup) != M` guard
// skipped the pair rebuild and Refresh silently kept the old topology's
// coalesced groups. The generation-keyed guard must rebuild, making a
// refreshed Laplacian bit-identical to one built fresh on the rewired graph.
func TestRefreshAfterRewire(t *testing.T) {
	g := graph.New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 3)
	g.MustAddEdge(3, 4, 4)
	g.MustAddEdge(4, 5, 5)
	l := NewLaplacian(g)

	if err := g.RewireEdge(1, 0, 5); err != nil {
		t.Fatal(err)
	}
	if g.M() != 5 {
		t.Fatalf("RewireEdge changed M to %d", g.M())
	}
	l.Refresh()

	fresh := NewLaplacian(g)
	src := Vec{1, -2, 3, -4, 5, -6}
	got, want := NewVec(6), NewVec(6)
	l.Apply(got, src)
	fresh.Apply(want, src)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("refreshed Apply[%d] = %v, fresh build %v — stale pair cache", i, got[i], want[i])
		}
	}
	for i := range want {
		if ld, fd := l.Degrees()[i], fresh.Degrees()[i]; ld != fd {
			t.Fatalf("refreshed degree[%d] = %v, fresh %v", i, ld, fd)
		}
	}
}

// TestSumOperatorConcurrentApply drives one composed operator from many
// goroutines at once — the shape of the session layer's parallel per-slot
// solves. With the old shared s.tmp scratch this races (and corrupts
// results); with per-call pool scratch every result must be exact. Run
// under -race in `make stress` and the GOMAXPROCS>1 CI job.
func TestSumOperatorConcurrentApply(t *testing.T) {
	g, err := graph.ConnectedGNM(300, 900, 5)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLaplacian(g)
	sum, err := NewSumOperator(l, &ScaledOperator{A: l, C: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	src := randomVec(g.N(), 6)
	want := NewVec(g.N())
	sum.Apply(want, src)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := NewVec(g.N())
			for iter := 0; iter < 50; iter++ {
				sum.Apply(dst, src)
				for i := range dst {
					if dst[i] != want[i] {
						errs <- "concurrent Apply diverged from sequential result"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
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

// TestPoolRangeCoversExactly checks the fixed elementwise partition: every
// index visited exactly once, at any worker count.
func TestPoolRangeCoversExactly(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := SharedPool(workers)
		var mu sync.Mutex
		seen := make([]int, bigN)
		p.Range(bigN, func(lo, hi int) {
			mu.Lock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			mu.Unlock()
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

// TestPooledCGBitIdentical solves one system with and without a pool; the
// solutions must agree bit-for-bit (same iterates, same residuals).
func TestPooledCGBitIdentical(t *testing.T) {
	g, err := graph.ConnectedGNM(1500, 6000, 7)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLaplacian(g)
	b := NewVec(g.N())
	b[0], b[g.N()-1] = 1, -1
	precond := l.Degrees().Clone()
	opts := CGOptions{Tol: 1e-10, Precond: precond, ProjectMean: true}

	want, wantRes, err := SolveCG(l, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		lp := NewLaplacian(g)
		lp.SetPool(SharedPool(workers))
		lp.Refresh()
		po := opts
		po.Pool = lp.Pool()
		got, gotRes, err := SolveCG(lp, b, po)
		if err != nil {
			t.Fatal(err)
		}
		if gotRes.Iterations != wantRes.Iterations || gotRes.Residual != wantRes.Residual {
			t.Fatalf("workers=%d: result %+v, want %+v", workers, gotRes, wantRes)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: x[%d] = %v, want %v (pooled CG not bit-identical)", workers, i, got[i], want[i])
			}
		}
	}
}
