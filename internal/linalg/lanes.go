package linalg

import (
	"fmt"
	"math"
)

// LaneWidth is how many right-hand sides one lane group carries: the four
// float64 lanes of an AVX register.
//
// A lane group stores its vectors interleaved: entry i of lane q sits at
// LaneWidth*i+q, so a vector of dimension n takes LaneWidth*n entries
// however many lanes are in use, and the unused lanes hold zeros or
// leftovers that no lane reads. Every lane kernel gives each lane the bits
// its one-lane counterpart gives that lane alone: the same operations in
// the same order, entry by entry. Lanes share the work that does not depend
// on the right-hand side — each pass over the factor, each Laplacian pair —
// and the one-lane kernels stay the reference.
const LaneWidth = 4

// LaneGroup returns how many of k right-hand sides the next lane group
// should carry: up to LaneWidth, but a pair runs as two single right-hand
// sides. A lane sweep costs about as much for two lanes as for four, more
// than two one-lane sweeps (BenchmarkCholeskySolveLanes).
func LaneGroup(k int) int {
	switch {
	case k >= LaneWidth:
		return LaneWidth
	case k == 3:
		return 3
	default:
		return 1
	}
}

// SetLane writes v into lane q of the interleaved x.
func SetLane(x []float64, q int, v Vec) {
	x = x[:LaneWidth*len(v)]
	for i, e := range v {
		x[LaneWidth*i+q] = e
	}
}

// GetLane copies lane q of the interleaved x into v.
func GetLane(v Vec, x []float64, q int) {
	x = x[:LaneWidth*len(v)]
	for i := range v {
		v[i] = x[LaneWidth*i+q]
	}
}

// Calls counts numerical kernel calls not yet recorded in
// lapcc_linalg_kernel_calls_total. The lane kernels count into one, once
// per call: each count stands for the one call every lane would have made
// alone. A lane group's driver keeps a lane's calls here until it commits
// the lane (Commit), so the counters read as if the right-hand sides had
// run one after another, even when work done ahead for a later lane is
// thrown away.
type Calls struct{ n [numKernels]int64 }

func (c *Calls) count(kernel int) { c.n[kernel]++ }

// Add adds o's counts to c.
func (c *Calls) Add(o Calls) {
	for k, v := range o.n {
		c.n[k] += v
	}
}

// Commit records c's counts in the process-wide registry (a no-op when
// metrics are disabled) and zeroes them.
func (c *Calls) Commit() {
	if in := instruments(); in != nil {
		for k, v := range c.n {
			if v != 0 {
				in.kernels[k].Add(v)
			}
		}
	}
	*c = Calls{}
}

// lanesOf returns the dimension of the interleaved vector v.
func lanesOf(v []float64) int {
	if len(v)%LaneWidth != 0 {
		panic(fmt.Sprintf("linalg: interleaved vector of length %d", len(v)))
	}
	return len(v) / LaneWidth
}

// blockReduceLanes is blockReduce for every lane at once: partial returns
// each lane's sum over entries [lo, hi), and each lane's block partials
// fold by treeReduce as one lane's would.
func blockReduceLanes(n int, partial func(lo, hi int) [LaneWidth]float64) [LaneWidth]float64 {
	if n <= reduceBlock {
		return partial(0, n)
	}
	var buf [LaneWidth][stackBlocks]float64
	var parts [LaneWidth][]float64
	nb := (n + reduceBlock - 1) / reduceBlock
	for q := range parts {
		parts[q] = buf[q][:0]
		if nb > stackBlocks {
			parts[q] = make([]float64, 0, nb)
		}
	}
	for lo := 0; lo < n; lo += reduceBlock {
		p := partial(lo, min(lo+reduceBlock, n))
		for q := range parts {
			parts[q] = append(parts[q], p[q])
		}
	}
	var s [LaneWidth]float64
	for q := range s {
		s[q] = treeReduce(parts[q])
	}
	return s
}

// DotLanes returns each lane's v·w, reduced as Dot reduces it, counted as
// one dot call.
func DotLanes(v, w []float64, c *Calls) [LaneWidth]float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: dot of vectors with lengths %d and %d", len(v), len(w)))
	}
	c.count(kernelDot)
	return blockReduceLanes(lanesOf(v), func(lo, hi int) [LaneWidth]float64 {
		v, w := v[LaneWidth*lo:LaneWidth*hi], w[LaneWidth*lo:LaneWidth*hi]
		var s0, s1, s2, s3 float64
		for i := 0; i < len(v); i += LaneWidth {
			v, w := v[i:i+LaneWidth], w[i:i+LaneWidth]
			s0 += v[0] * w[0]
			s1 += v[1] * w[1]
			s2 += v[2] * w[2]
			s3 += v[3] * w[3]
		}
		return [LaneWidth]float64{s0, s1, s2, s3}
	})
}

// subMeanLanes subtracts each lane's mean from its entries, as the
// RemoveMean method does one vector (one sum call on a non-empty v).
func subMeanLanes(v []float64, c *Calls) {
	if len(v) == 0 {
		return
	}
	c.count(kernelSum)
	subMean4(v, haveAVX)
}

// subMean4 is subMeanLanes' arithmetic with the kernel chosen by avx.
func subMean4(v []float64, avx bool) {
	n := lanesOf(v)
	if avx && n <= reduceBlock {
		subMeanLanesAVX(v, float64(n))
		return
	}
	sum := blockReduceLanes(n, func(lo, hi int) [LaneWidth]float64 {
		var s0, s1, s2, s3 float64
		for i := LaneWidth * lo; i < LaneWidth*hi; i += LaneWidth {
			v := v[i : i+LaneWidth]
			s0 += v[0]
			s1 += v[1]
			s2 += v[2]
			s3 += v[3]
		}
		return [LaneWidth]float64{s0, s1, s2, s3}
	})
	var m [LaneWidth]float64
	for q := range m {
		m[q] = sum[q] / float64(n)
	}
	for i := 0; i < len(v); i += LaneWidth {
		v := v[i : i+LaneWidth]
		v[0] -= m[0]
		v[1] -= m[1]
		v[2] -= m[2]
		v[3] -= m[3]
	}
}

// RemoveMeanLanes is RemoveMean on every lane, counted as one remove_mean
// call (and one sum call on a non-empty v).
func RemoveMeanLanes(v []float64, c *Calls) {
	c.count(kernelRemoveMean)
	subMeanLanes(v, c)
}

// AXPYLanes sets v = v + a*w on every lane, counted as one axpy call.
func AXPYLanes(v []float64, a float64, w []float64, c *Calls) {
	c.count(kernelAXPY)
	Vec(v).AXPY(a, w)
}

// ScaleLanes sets v = a*v on every lane, counted as one scale call.
func ScaleLanes(v []float64, a float64, c *Calls) {
	c.count(kernelScale)
	Vec(v).Scale(a)
}

// ApplyLanes is Apply on every lane, counted as one apply call: dst =
// L*src, the diagonal first, then each pair's two off-diagonal terms in
// pair order. dst and src must not alias.
func (l *Laplacian) ApplyLanes(dst, src []float64, c *Calls) {
	c.count(kernelApply)
	l.applyLanes(dst, src, haveAVX)
}

// applyLanes is ApplyLanes' arithmetic with the kernel chosen by avx.
func (l *Laplacian) applyLanes(dst, src []float64, avx bool) {
	n := l.Dim()
	dst, src = dst[:LaneWidth*n], src[:LaneWidth*n]
	if avx {
		applyLanesAVX(dst, src, l.deg, l.cu, l.cv, l.cw)
		return
	}
	for i, d := range l.deg {
		o, s := dst[LaneWidth*i:LaneWidth*i+LaneWidth], src[LaneWidth*i:LaneWidth*i+LaneWidth]
		o[0], o[1], o[2], o[3] = d*s[0], d*s[1], d*s[2], d*s[3]
	}
	cu, cv := l.cu, l.cv
	for p, w := range l.cw {
		u, v := LaneWidth*int(cu[p]), LaneWidth*int(cv[p])
		du, sv := dst[u:u+LaneWidth], src[v:v+LaneWidth]
		du[0] -= w * sv[0]
		du[1] -= w * sv[1]
		du[2] -= w * sv[2]
		du[3] -= w * sv[3]
		dv, su := dst[v:v+LaneWidth], src[u:u+LaneWidth]
		dv[0] -= w * su[0]
		dv[1] -= w * su[1]
		dv[2] -= w * su[2]
		dv[3] -= w * su[3]
	}
}

// SolveLanesTo is SolveTo on every lane: dst and b hold LaneWidth
// right-hand sides interleaved, and each lane of dst gets the bits SolveTo
// gives that lane alone. The sweeps go over the factor once for all lanes:
// each four-row diagonal block is finished for every lane at once, then
// subtracted from the other rows. It allocates nothing, and dst may alias
// b.
func (c *CholeskyFactor) SolveLanesTo(dst, b []float64) { c.solveLanesTo(dst, b, haveAVX) }

// solveLanesTo is SolveLanesTo with the sweep kernels chosen by avx.
func (c *CholeskyFactor) solveLanesTo(dst, b []float64, avx bool) {
	n := c.n
	dst, b = dst[:LaneWidth*n], b[:LaneWidth*n]
	copy(dst, b)
	if avx {
		forwardLanesAVX(dst, c.l, n)
		backLanesAVX(dst, c.l, n)
		return
	}
	forwardLanes(dst, c.l, n)
	backLanes(dst, c.l, n)
}

// PseudoSolveLanesTo is PseudoSolveTo on every lane, counting the two sum
// calls each lane's mean removals make. dst may alias b.
func (c *CholeskyFactor) PseudoSolveLanesTo(dst, b []float64, calls *Calls) {
	copy(dst, b)
	subMeanLanes(dst, calls)
	c.SolveLanesTo(dst, dst)
	subMeanLanes(dst, calls)
}

// forwardLanes solves L y = b in place on every lane of the interleaved x
// (n entries per lane), one row at a time: y[i] = (b[i] - sum_{k<i} L[i][k]
// y[k]) / L[i][i], each sum in ascending k, a multiply then a subtract per
// term. SolveTo's forward sweep gives every entry those operations in that
// order, so each lane gets its bits. It is the Go kernel behind
// forwardLanesAVX, and its reference.
func forwardLanes(x, l []float64, n int) {
	x = x[:LaneWidth*n]
	for i := 0; i < n; i++ {
		o := i * (i + 1) / 2
		ri := l[o : o+i+1]
		xi := x[LaneWidth*i : LaneWidth*i+LaneWidth]
		s0, s1, s2, s3 := xi[0], xi[1], xi[2], xi[3]
		for k, v := range ri[:i] {
			y := x[LaneWidth*k : LaneWidth*k+LaneWidth]
			s0 -= v * y[0]
			s1 -= v * y[1]
			s2 -= v * y[2]
			s3 -= v * y[3]
		}
		d := ri[i]
		xi[0], xi[1], xi[2], xi[3] = s0/d, s1/d, s2/d, s3/d
	}
}

// backLanes solves L^T x = y in place on every lane of the interleaved x,
// one row at a time from the bottom: x[i] = y[i] / L[i][i], then x[i]'s
// contribution is subtracted from every entry above it, rows in descending
// order as SolveTo's back sweep subtracts them. It is the Go kernel behind
// backLanesAVX, and its reference.
func backLanes(x, l []float64, n int) {
	x = x[:LaneWidth*n]
	for i := n - 1; i >= 0; i-- {
		o := i * (i + 1) / 2
		ri := l[o : o+i+1]
		xi := x[LaneWidth*i : LaneWidth*i+LaneWidth]
		d := ri[i]
		a0, a1, a2, a3 := xi[0]/d, xi[1]/d, xi[2]/d, xi[3]/d
		xi[0], xi[1], xi[2], xi[3] = a0, a1, a2, a3
		for k, v := range ri[:i] {
			y := x[LaneWidth*k : LaneWidth*k+LaneWidth]
			y[0] -= v * a0
			y[1] -= v * a1
			y[2] -= v * a2
			y[3] -= v * a3
		}
	}
}

// LaneResult reports one lane of a PreconChebyLanes run: what a one-lane
// PreconCheby run on that lane's right-hand side, with the same options,
// would have returned and done.
type LaneResult struct {
	ChebyResult
	// Err is the lane's stagnation error, unwrapping to ErrStagnated, or
	// nil.
	Err error
	// Steps is how many times that run would have called OnIteration.
	Steps int
	// Calls is the kernel calls that run would have counted, bSolve's
	// included.
	Calls Calls
}

// PreconChebyLanes runs PreconCheby on LaneWidth right-hand sides at once.
// b holds them interleaved, and so do the vectors bSolve receives and the
// iterate returned, which lives in opts.Scratch until its next use.
// bSolve must count its kernel calls into the Calls it is given.
//
// The lanes share kappa and eps, so they run the same iteration count with
// the same coefficients, and each lane gets the bits a one-lane run gives
// it. A lane whose residual plateaus freezes where its one-lane run would
// stop: its iterate keeps that run's value, its LaneResult reports that
// run's iterations and error, and the other lanes go on. Nothing is
// counted: res reports each lane's OnIteration steps and kernel calls for
// the caller to commit. opts.X0 and opts.OnIteration must be nil. The
// error reports bad options or a failed bSolve, which ends every lane.
func PreconChebyLanes(a *Laplacian, bSolve func(dst, r []float64, c *Calls) error, b []float64, opts ChebyOptions, res *[LaneWidth]LaneResult) ([]float64, error) {
	n := a.Dim()
	if len(b) != LaneWidth*n {
		return nil, fmt.Errorf("linalg: interleaved rhs length %d for operator dimension %d", len(b), n)
	}
	if opts.Kappa < 1 {
		return nil, fmt.Errorf("linalg: kappa %v < 1", opts.Kappa)
	}
	if opts.Eps <= 0 || opts.Eps > 0.5 {
		return nil, fmt.Errorf("linalg: eps %v outside (0, 1/2]", opts.Eps)
	}
	if opts.X0 != nil || opts.OnIteration != nil {
		return nil, fmt.Errorf("linalg: lanes take neither a warm start nor an iteration hook")
	}

	lamMin := 1 / opts.Kappa
	lamMax := 1.0
	iters := opts.MaxIter
	if iters == 0 {
		iters = int(math.Ceil(math.Sqrt(opts.Kappa)*math.Log(2/opts.Eps))) + 1
	}
	theta := (lamMax + lamMin) / 2
	delta := (lamMax - lamMin) / 2

	scratch := opts.Scratch
	if scratch == nil {
		scratch = &ChebyScratch{}
	}
	m := LaneWidth * n
	x := takeVec(&scratch.x, m)
	x.Zero()
	r := takeVec(&scratch.r, m)
	copy(r, b)
	av := takeVec(&scratch.av, m)
	z := takeVec(&scratch.z, m)
	frozenX := takeVec(&scratch.xf, m)

	*res = [LaneWidth]LaneResult{}
	var (
		calls   Calls // the calls every running lane has made
		frozen  [LaneWidth]bool
		running = LaneWidth
		steps   int
		bnorm   [LaneWidth]float64 // zero with the check disabled
		prevRes = [LaneWidth]float64{-1, -1, -1, -1}
		flat    [LaneWidth]int
		noDots  [LaneWidth]int64 // residual dots a zero lane's run skips
	)
	if opts.StagnationWindow > 0 {
		bb := DotLanes(b, b, &calls)
		for q := range bnorm {
			bnorm[q] = math.Sqrt(bb[q])
		}
	}
	// end records lane q's one-lane run as returning here.
	end := func(q, iterations int, err error) {
		res[q] = LaneResult{ChebyResult: ChebyResult{Iterations: iterations}, Err: err, Steps: steps, Calls: calls}
		res[q].Calls.n[kernelDot] -= noDots[q]
	}
	// stagnated runs each running lane's plateau check after iteration k,
	// freezing the lanes that stagnate with count iterations done. It
	// reports whether no lane is left running.
	stagnated := func(k, count int) bool {
		var check bool
		for q := range bnorm {
			check = check || (!frozen[q] && bnorm[q] != 0)
		}
		if !check {
			return false
		}
		rr := DotLanes(r, r, &calls)
		for q := range bnorm {
			if frozen[q] {
				continue
			}
			if bnorm[q] == 0 {
				noDots[q]++
				continue
			}
			rs := math.Sqrt(rr[q]) / bnorm[q]
			if prevRes[q] >= 0 && math.Abs(rs-prevRes[q]) <= stagnationImprovement*prevRes[q] {
				flat[q]++
			} else {
				flat[q] = 0
			}
			prevRes[q] = rs
			if flat[q] >= opts.StagnationWindow && rs > opts.StagnationTol {
				end(q, count, fmt.Errorf("%w: residual flat at %v for %d iterations (above tolerance %v after %d iterations)",
					ErrStagnated, rs, flat[q], opts.StagnationTol, k+1))
				frozen[q] = true
				running--
				for i := q; i < m; i += LaneWidth {
					frozenX[i] = x[i]
				}
			}
		}
		return running == 0
	}
	// finish ends the lanes still running after count iterations and puts
	// the frozen lanes' iterates back.
	finish := func(count int) []float64 {
		for q := range frozen {
			if !frozen[q] {
				end(q, count, nil)
				continue
			}
			for i := q; i < m; i += LaneWidth {
				x[i] = frozenX[i]
			}
		}
		return x
	}

	if delta < 1e-14 {
		// kappa ~ 1: Richardson steps, as in PreconCheby.
		for k := 0; k < iters; k++ {
			steps++
			if err := bSolve(z, r, &calls); err != nil {
				return nil, err
			}
			ScaleLanes(z, 1/theta, &calls)
			AXPYLanes(x, 1, z, &calls)
			a.ApplyLanes(av, x, &calls)
			copy(r, b)
			AXPYLanes(r, -1, av, &calls)
			if stagnated(k, k+1) {
				return finish(iters), nil
			}
		}
		return finish(iters), nil
	}

	sigma := theta / delta
	rho := 1 / sigma

	steps++
	if err := bSolve(z, r, &calls); err != nil {
		return nil, err
	}
	d := takeVec(&scratch.d, m)
	copy(d, z)
	ScaleLanes(d, 1/theta, &calls)

	count := 1
	for k := 1; k < iters; k++ {
		steps++
		AXPYLanes(x, 1, d, &calls)
		a.ApplyLanes(av, d, &calls)
		AXPYLanes(r, -1, av, &calls)
		if stagnated(k, count) {
			return finish(count), nil
		}
		if err := bSolve(z, r, &calls); err != nil {
			return nil, err
		}
		rhoNext := 1 / (2*sigma - rho)
		cd, cz := rhoNext*rho, 2*rhoNext/delta
		for i := range d {
			d[i] = cd*d[i] + cz*z[i]
		}
		rho = rhoNext
		count++
	}
	AXPYLanes(x, 1, d, &calls)
	return finish(count), nil
}
