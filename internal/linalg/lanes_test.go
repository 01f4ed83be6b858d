package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/metrics"
)

// laneKernels names the kernel sets a lane test runs, skipping the AVX set
// on a CPU without it.
func laneKernels(t *testing.T, run func(t *testing.T, avx bool)) {
	t.Run("go", func(t *testing.T) { run(t, false) })
	t.Run("avx", func(t *testing.T) {
		if !haveAVX {
			t.Skip("no AVX kernels: the CPU lacks AVX, the OS does not save YMM state, or the platform is not amd64")
		}
		run(t, true)
	})
}

// TestSolveLanesBitIdentical compares every lane of SolveLanesTo, on both
// kernel sets, with SolveTo on that lane alone and with the Go lane
// kernels, bit for bit: seeded factors of every size from 0 to 299, factor
// entries and right-hand sides of both signs with magnitudes from 1e-10 to
// 1e10, interleaved vectors starting 0 to 3 entries into their backing
// arrays, and dst aliasing b. A fused multiply-add in place of a lane
// kernel's multiply and subtract rounds once instead of twice, and fails it.
func TestSolveLanesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	wide := func() float64 {
		return math.Copysign(math.Pow(10, 20*rng.Float64()-10), rng.Float64()-0.5)
	}
	// Each diagonal entry outweighs the rest of its row and its column
	// together, so neither sweep grows an entry past the largest |b|.
	const rows = 300
	big := newCholeskyFactor(rows)
	for i := 0; i < rows; i++ {
		ri := big.row(i)
		for k := range ri[:i] {
			ri[k] = wide()
		}
	}
	for i := 0; i < rows; i++ {
		sum := 1.0
		for k := 0; k < i; k++ {
			sum += math.Abs(big.row(i)[k])
		}
		for k := i + 1; k < rows; k++ {
			sum += math.Abs(big.row(k)[i])
		}
		big.row(i)[i] = math.Copysign(sum*(1+rng.Float64()), wide())
	}
	laneKernels(t, func(t *testing.T, avx bool) {
		for n := 0; n < rows; n++ {
			c := &CholeskyFactor{n: n, l: big.l[:n*(n+1)/2]}
			var want [LaneWidth]Vec
			b := at(make([]float64, LaneWidth*n), n%4)
			for q := range want {
				bq := NewVec(n)
				for i := range bq {
					bq[i] = wide()
				}
				SetLane(b, q, bq)
				want[q] = NewVec(n)
				c.solveTo(want[q], bq, haveAVX)
			}
			got := at(make([]float64, LaneWidth*n), (n+1)%4)
			c.solveLanesTo(got, b, avx)
			ref := make([]float64, LaneWidth*n)
			copy(ref, b)
			forwardLanes(ref, c.l, n)
			backLanes(ref, c.l, n)
			in := at(b, (n+2)%4)
			c.solveLanesTo(in, in, avx)
			for q := range want {
				lane := NewVec(n)
				for _, v := range []struct {
					name string
					x    []float64
				}{{"SolveLanesTo", got}, {"Go lane kernels", ref}, {"in-place SolveLanesTo", in}} {
					GetLane(lane, v.x, q)
					sameBits(t, fmt.Sprintf("n=%d lane %d %s", n, q, v.name), lane, want[q])
				}
			}
		}
	})
}

// TestSolveLanesToAllocatesNothing: the lane sweeps run in place on both
// kernel sets.
func TestSolveLanesToAllocatesNothing(t *testing.T) {
	f, err := LaplacianCholesky(choleskyBenchGraph(t, 128))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, LaneWidth*128)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	laneKernels(t, func(t *testing.T, avx bool) {
		if a := testing.AllocsPerRun(10, func() { f.solveLanesTo(x, x, avx) }); a != 0 {
			t.Fatalf("solveLanesTo allocates %v times", a)
		}
	})
}

// TestApplyLanesBitIdentical compares every lane of ApplyLanes, on both
// kernel sets, with Apply on that lane alone, bit for bit: weights and
// entries of magnitudes from 1e-10 to 1e10, on a regular graph and on a
// multigraph whose parallel edges coalesce into pairs.
func TestApplyLanesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	wide := func() float64 {
		return math.Copysign(math.Pow(10, 20*rng.Float64()-10), rng.Float64()-0.5)
	}
	reg, err := graph.RandomRegular(96, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	multi := graph.New(40)
	for i := 0; i < 300; i++ {
		u, v := rng.Intn(40), rng.Intn(39)
		if v >= u {
			v++
		}
		multi.MustAddEdge(u, v, 1)
	}
	laneKernels(t, func(t *testing.T, avx bool) {
		for _, g := range []*graph.Graph{reg, multi} {
			for i := 0; i < g.M(); i++ {
				if err := g.SetWeight(i, math.Abs(wide())); err != nil {
					t.Fatal(err)
				}
			}
			l := NewLaplacian(g)
			n := g.N()
			src := make([]float64, LaneWidth*n)
			for i := range src {
				src[i] = wide()
			}
			got := make([]float64, LaneWidth*n)
			l.applyLanes(got, src, avx)
			for q := 0; q < LaneWidth; q++ {
				in, want, lane := NewVec(n), NewVec(n), NewVec(n)
				GetLane(in, src, q)
				l.Apply(want, in)
				GetLane(lane, got, q)
				sameBits(t, fmt.Sprintf("n=%d lane %d", n, q), lane, want)
			}
		}
	})
}

// TestLaneReductionsBitIdentical compares each lane of DotLanes and of
// the lane mean removal, on both kernel sets, with Dot and RemoveMean on
// that lane alone, bit for bit, at sizes on both sides of one reduction
// block (where the partials fold by treeReduce), and the empty vector.
func TestLaneReductionsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	laneKernels(t, func(t *testing.T, avx bool) {
		for _, n := range []int{0, 1, 5, 128, reduceBlock, reduceBlock + 3, 3*reduceBlock + 17} {
			v, w := make([]float64, LaneWidth*n), make([]float64, LaneWidth*n)
			for i := range v {
				v[i] = math.Copysign(math.Pow(10, 20*rng.Float64()-10), rng.Float64()-0.5)
				w[i] = rng.NormFloat64()
			}
			var c Calls
			dots := DotLanes(v, w, &c)
			got := append([]float64(nil), v...)
			subMean4(got, avx)
			for q := 0; q < LaneWidth; q++ {
				vq, wq, lane := NewVec(n), NewVec(n), NewVec(n)
				GetLane(vq, v, q)
				GetLane(wq, w, q)
				if want := vq.Dot(wq); math.Float64bits(dots[q]) != math.Float64bits(want) {
					t.Fatalf("n=%d lane %d: dot %v, want %v", n, q, dots[q], want)
				}
				vq.RemoveMean()
				GetLane(lane, got, q)
				sameBits(t, fmt.Sprintf("n=%d lane %d mean removal", n, q), lane, vq)
			}
		}
	})
}

// laneCheby is one lane problem for TestPreconChebyLanesMatchesOneLane: a
// Laplacian, its exact preconditioner and LaneWidth right-hand sides.
func laneCheby(t *testing.T, n int, seed int64) (*Laplacian, *CholeskyFactor, [LaneWidth]Vec) {
	t.Helper()
	g, err := graph.RandomRegular(n, 6, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Spread the weights so the preconditioner is inexact.
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < g.M(); i++ {
		if err := g.SetWeight(i, 1+9*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	f, err := LaplacianCholesky(g)
	if err != nil {
		t.Fatal(err)
	}
	g2 := g.Clone()
	for i := 0; i < g2.M(); i++ {
		if err := g2.SetWeight(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	var bs [LaneWidth]Vec
	for q := range bs {
		bs[q] = meanFreeRandomVec(n, seed+int64(q))
	}
	return NewLaplacian(g2), f, bs
}

// TestPreconChebyLanesMatchesOneLane runs PreconChebyLanes against one
// PreconCheby run per lane and wants, lane by lane, the same iterate bits,
// iterations, error, OnIteration steps and kernel counts, with and without
// the plateau check, in both branches (kappa 1 runs Richardson steps), on
// a zero lane, and on a lane that stagnates while the others go on.
func TestPreconChebyLanesMatchesOneLane(t *testing.T) {
	cases := []struct {
		name   string
		kappa  float64
		eps    float64
		window int
		tol    float64
		zero   int // lane whose right-hand side is zero, or -1
		scale  [LaneWidth]float64
		iters  int
	}{
		{"chebyshev", 60, 1e-8, 0, 0, -1, [LaneWidth]float64{1, 1, 1, 1}, 0},
		{"window", 60, 1e-8, StagnationWindowFor(60), 1e-8, -1, [LaneWidth]float64{1, 1e-300, 1e300, 1}, 0},
		{"zero lane", 60, 1e-6, StagnationWindowFor(60), 1e-6, 2, [LaneWidth]float64{1, 1, 1, 1}, 0},
		{"richardson", 1, 1e-6, 3, 1e-6, 1, [LaneWidth]float64{1, 1, 1, 1}, 0},
		// A window of 2 with tolerance 0 flags the flat residual of a
		// converged lane: lanes 0 and 2 freeze, at iterations 152 and 153,
		// and lanes 1 and 3 run on to the 158-iteration cap.
		{"stagnation", 60, 1e-12, 2, 0, -1, [LaneWidth]float64{1, 1e-3, 1, 1e3}, 158},
	}
	kernels := []string{"apply", "dot", "sum", "axpy", "scale", "remove_mean"}
	counts := func(reg *metrics.Registry) map[string]int64 {
		m := map[string]int64{}
		for _, k := range kernels {
			m[k] = reg.Counter("lapcc_linalg_kernel_calls_total",
				"Numerical kernel invocations, by kernel.", "kernel", k).Value()
		}
		return m
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l, f, bs := laneCheby(t, 64, 7)
			for q := range bs {
				bs[q].Scale(c.scale[q])
			}
			if c.zero >= 0 {
				bs[c.zero].Zero()
			}
			opts := ChebyOptions{Kappa: c.kappa, Eps: c.eps, MaxIter: c.iters, StagnationWindow: c.window, StagnationTol: c.tol}

			var want [LaneWidth]struct {
				x     Vec
				res   ChebyResult
				err   error
				steps int
				calls map[string]int64
			}
			for q, b := range bs {
				reg := metrics.NewRegistry()
				SetMetrics(reg)
				o := opts
				o.OnIteration = func() { want[q].steps++ }
				want[q].x, want[q].res, want[q].err = PreconCheby(l, func(dst, r Vec) error {
					f.PseudoSolveTo(dst, r)
					return nil
				}, b, o)
				want[q].calls = counts(reg)
				SetMetrics(nil)
			}

			reg := metrics.NewRegistry()
			SetMetrics(reg)
			defer SetMetrics(nil)
			b := make([]float64, LaneWidth*l.Dim())
			for q, v := range bs {
				SetLane(b, q, v)
			}
			var res [LaneWidth]LaneResult
			x, err := PreconChebyLanes(l, func(dst, r []float64, calls *Calls) error {
				f.PseudoSolveLanesTo(dst, r, calls)
				return nil
			}, b, opts, &res)
			if err != nil {
				t.Fatal(err)
			}
			if got := counts(reg); got["dot"]+got["sum"]+got["apply"] != 0 {
				t.Fatalf("PreconChebyLanes counted %v itself", got)
			}
			var stagnated int
			for q := range bs {
				got := NewVec(l.Dim())
				GetLane(got, x, q)
				sameBits(t, fmt.Sprintf("lane %d", q), got, want[q].x)
				if res[q].ChebyResult != want[q].res || res[q].Steps != want[q].steps {
					t.Fatalf("lane %d: %+v in %d steps, want %+v in %d", q, res[q].ChebyResult, res[q].Steps, want[q].res, want[q].steps)
				}
				if fmt.Sprint(res[q].Err) != fmt.Sprint(want[q].err) {
					t.Fatalf("lane %d: error %v, want %v", q, res[q].Err, want[q].err)
				}
				if errors.Is(res[q].Err, ErrStagnated) {
					stagnated++
				}
				res[q].Calls.Commit()
				if got := counts(reg); fmt.Sprint(got) != fmt.Sprint(want[q].calls) {
					t.Fatalf("lane %d: kernel calls %v, want %v", q, got, want[q].calls)
				}
				SetMetrics(nil)
				reg = metrics.NewRegistry()
				SetMetrics(reg)
			}
			if c.name == "stagnation" && stagnated != 2 {
				t.Fatalf("%d of %d lanes stagnated, want 2", stagnated, LaneWidth)
			}
		})
	}
}

// BenchmarkCholeskySolveLanes times k right-hand sides through the factor
// of RandomRegular(n, 6) at n = 128, 512 and 1024, grouped as a lane
// solver groups them (LaneGroup): one SolveTo per right-hand side outside
// a lane group, one SolveLanesTo per group (the unused lanes zero), the
// interleaving of right-hand sides and solutions included. Set against k
// times BenchmarkCholeskySolveTo, it is the lanes' gain per right-hand
// side.
func BenchmarkCholeskySolveLanes(b *testing.B) {
	for _, n := range choleskyBenchSizes {
		f, err := LaplacianCholesky(choleskyBenchGraph(b, n))
		if err != nil {
			b.Fatal(err)
		}
		var rhs, xs [LaneWidth]Vec
		for q := range rhs {
			rhs[q], xs[q] = meanFreeRandomVec(n, int64(2+q)), NewVec(n)
		}
		buf := make([]float64, LaneWidth*n)
		for k := 1; k <= LaneWidth; k++ {
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for j := 0; j < k; {
						w := LaneGroup(k - j)
						if w == 1 {
							f.SolveTo(xs[j], rhs[j])
							j++
							continue
						}
						for q := 0; q < w; q++ {
							SetLane(buf, q, rhs[j+q])
						}
						f.SolveLanesTo(buf, buf)
						for q := 0; q < w; q++ {
							GetLane(xs[j+q], buf, q)
						}
						j += w
					}
				}
			})
		}
	}
}
