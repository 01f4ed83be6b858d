package mcmf

import (
	"errors"
	"fmt"
	"math"

	"lapcc/internal/electrical"
	"lapcc/internal/flowround"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
	"lapcc/internal/shortestpath"
	"lapcc/internal/sparsify"
)

// The interior-point method's fixed parameters.
const (
	// budgetFactor scales the m^{3/7} polylog W Progress budget; the
	// paper's c_T = 1200*sqrt(3) log^{4/3} W constant is a proof artifact.
	budgetFactor = 2
	// solveEps is the per-iteration Laplacian solve precision.
	solveEps = 1e-10
)

// Options configures the Theorem 1.3 pipeline.
type Options struct {
	// Env is the run: its budget is checked at every IPM iteration, and
	// the whole run goes to the electrical session and the flow-rounding
	// cascade, whose network primitives its transport and fault plan
	// carry.
	runenv.Env
	// FreshBuild restores the pre-session behavior: rebuild the support
	// graph and Laplacian from scratch on every solve instead of
	// reweighting the build-once session. Kept as the benchmark baseline
	// and the differential-test oracle; charged rounds are identical
	// either way.
	FreshBuild bool
	// DisableIPM skips Progress entirely (ablation: Repairing alone from
	// the rounded half-integral start).
	DisableIPM bool
}

// Result reports a Theorem 1.3 run.
type Result struct {
	// Stats carries the shared round accounting of the call.
	rounds.Stats
	// Flow is the optimal per-arc 0/1 flow on the input digraph.
	Flow []int64
	// Cost is the exact minimum cost.
	Cost int64
	// ProgressIterations counts Progress (Algorithm 9) calls.
	ProgressIterations int
	// Perturbations counts Perturbation (Algorithm 8) calls.
	Perturbations int
	// RepairAugmentations counts the shortest augmenting paths of
	// Repairing (Algorithm 10); the paper bounds this by O-tilde(m^{3/7}).
	RepairAugmentations int
	// CyclesCancelled counts residual negative-cycle cancellations needed
	// for exactness after Repairing (0 when the IPM did its job; nonzero
	// values expose shortfalls rather than hiding them).
	CyclesCancelled int
	// FinalMu is the mean complementarity f*s at IPM exit.
	FinalMu float64
}

// MinCostFlow routes the demand vector sigma on the unit-capacity digraph
// dg at minimum cost, following the Theorem 1.3 pipeline. See DESIGN.md for
// the substitutions relative to CMSV17.
func MinCostFlow(dg *graph.DiGraph, sigma []int64, opts Options) (*Result, error) {
	opts.Bind()
	snap := rounds.Snap(opts.Ledger)
	spansBefore := opts.Trace.SpanCount()
	res, err := minCostFlowImpl(dg, sigma, opts)
	if res != nil {
		res.Stats = snap.Stats()
		res.Spans = opts.Trace.SpanCount() - spansBefore
		if reg := opts.Metrics; reg != nil {
			reg.Counter("lapcc_mcmf_runs_total", "MinCostFlow calls.").Inc()
			reg.Counter("lapcc_mcmf_progress_iterations_total", "Progress (Algorithm 9) iterations.").Add(int64(res.ProgressIterations))
			reg.Counter("lapcc_mcmf_perturbations_total", "Perturbation (Algorithm 8) calls.").Add(int64(res.Perturbations))
			reg.Counter("lapcc_mcmf_repair_augmentations_total", "Repairing shortest augmenting paths.").Add(int64(res.RepairAugmentations))
			reg.Counter("lapcc_mcmf_cycles_cancelled_total", "Residual negative-cycle cancellations.").Add(int64(res.CyclesCancelled))
		}
	}
	return res, err
}

func minCostFlowImpl(dg *graph.DiGraph, sigma []int64, opts Options) (*Result, error) {
	l, err := newLifted(dg, sigma)
	if err != nil {
		return nil, err
	}
	tr := opts.Trace
	sp := tr.Start("mcmf")
	defer sp.End()
	res := &Result{}
	ipm := newCMSVState(l, opts)
	if !opts.DisableIPM {
		if err := ipm.run(res); err != nil {
			return nil, err
		}
	}
	rsp := tr.Start("round")
	match, err := ipm.roundToMatching(res)
	rsp.End()
	if err != nil {
		return nil, err
	}
	psp := tr.Start("repair")
	err = ipm.repair(match, res)
	psp.End()
	if err != nil {
		return nil, err
	}
	flow, err := l.decode(match)
	if err != nil {
		return nil, err
	}
	res.Flow = flow
	res.Cost, err = CheckRouting(dg, flow, sigma)
	if err != nil {
		return nil, fmt.Errorf("mcmf: internal: decoded flow invalid: %w", err)
	}
	return res, nil
}

// cmsvState is the IPM iterate: per bipartite edge, a primal value f in
// (0,1), a slack s > 0, and a weight nu >= 1; plus the dual y per vertex
// (only Perturbation and Repairing touch y, as in the paper).
type cmsvState struct {
	l    *lifted
	opts Options
	f    []float64
	s    []float64
	nu   []float64
	y    []float64
	rho  []float64
	eta  float64

	alphaRef float64 // measured sparsifier alpha for charged solve rounds
	chargeOK bool

	// sess is the build-once/reweight-per-solve electrical session over the
	// v0-preconditioned bipartite support. The topology is fixed for the
	// whole IPM: the v0 star covers exactly the P vertices with a(v) > 0,
	// and a(v) sums nu weights, which never decrease — so membership at the
	// first solve is membership forever. Nil under FreshBuild.
	sess  *electrical.Session
	wFull []float64 // scratch: bipartite weights followed by v0 weights
}

func newCMSVState(l *lifted, opts Options) *cmsvState {
	e := l.edges()
	st := &cmsvState{
		l:    l,
		opts: opts,
		f:    make([]float64, e),
		s:    make([]float64, e),
		nu:   make([]float64, e),
		y:    make([]float64, l.nP+l.nQ),
		rho:  make([]float64, e),
		eta:  1.0 / 14.0,
	}
	// Initialization (Algorithm 7, lines 11-13).
	cInf := 1.0
	for i := 0; i < e; i++ {
		if c := float64(l.edgeCost(i)); c > cInf {
			cInf = c
		}
	}
	for u := 0; u < l.nP; u++ {
		st.y[u] = cInf
	}
	for i := 0; i < e; i++ {
		st.f[i] = 0.5
		u, q := l.ends(i)
		st.s[i] = float64(l.edgeCost(i)) + st.y[u] - st.y[q]
		st.nu[i] = st.s[i] / (2 * cInf)
	}
	return st
}

// supportGraph is the bipartite graph weighted by conductances w; with
// precon it gains the v0 preconditioning vertex of Algorithm 6 (line 2),
// joined to every P vertex with resistance m^{1+2 eta}/a(v) where a(v)
// sums the nu weights around v (line 5).
func (st *cmsvState) supportGraph(w []float64, precon bool) *graph.Graph {
	n := st.l.nP + st.l.nQ
	if precon {
		n++
	}
	g := graph.New(n)
	for i := range st.f {
		u, q := st.l.ends(i)
		weight := 1.0
		if w != nil {
			weight = w[i]
		}
		if weight <= 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
			weight = 1e-12
		}
		g.MustAddEdge(u, q, weight)
	}
	if precon {
		v0 := st.l.nP + st.l.nQ
		scale := math.Pow(float64(st.l.nQ)+2, 1+2*st.eta)
		a := st.preconA()
		for u := 0; u < st.l.nP; u++ {
			if a[u] > 0 {
				g.MustAddEdge(v0, u, a[u]/scale)
			}
		}
	}
	return g
}

// preconA returns a(v) per P vertex: the sum of nu weights around v, the
// quantity behind the v0 preconditioning star of Algorithm 6 (line 5).
func (st *cmsvState) preconA() []float64 {
	a := make([]float64, st.l.nP)
	for i := range st.f {
		u, _ := st.l.ends(i)
		a[u] += st.nu[i] + st.nu[i^1]
	}
	return a
}

// solve runs one Laplacian solve on the v0-preconditioned bipartite
// support and charges the Theorem 1.1 round formula (calibrated once with
// a measured sparsifier alpha). The returned potentials are truncated back
// to the bipartite vertices (flow pushed onto v0 edges is discarded; the
// corrector solve of Algorithm 9 repairs the resulting first-order
// divergence, see DESIGN.md). The default path reweights the build-once
// session; FreshBuild rebuilds the support and Laplacian per solve
// (baseline/oracle). slot names the warm-start lane ("predictor" or
// "corrector"). The charge is topology-calibrated, so both paths put
// identical charged rounds on the ledger.
func (st *cmsvState) solve(w []float64, b linalg.Vec, slot string) (linalg.Vec, error) {
	if !st.chargeOK && st.opts.Ledger != nil {
		// The calibration build takes only the run's metrics, not the
		// run: it is internal measurement and charges nothing.
		unit := st.supportGraph(nil, false)
		sres, err := sparsify.Sparsify(unit, sparsify.Options{Metrics: st.opts.Metrics})
		if err != nil {
			return nil, fmt.Errorf("mcmf: calibrating solver charge: %w", err)
		}
		alpha, err := sparsify.MeasureAlpha(unit, sres.H, 100)
		if err != nil {
			return nil, fmt.Errorf("mcmf: calibrating solver charge: %w", err)
		}
		st.alphaRef = alpha
		st.chargeOK = true
	}
	var x linalg.Vec
	var err error
	if st.opts.FreshBuild {
		support := st.supportGraph(w, true)
		lg := linalg.NewLaplacian(support)
		rhs := linalg.NewVec(support.N())
		copy(rhs, b)
		x, err = linalg.LaplacianCGSolver(lg, solveEps)(rhs)
	} else {
		x, err = st.sessionSolve(w, b, slot)
	}
	if err != nil {
		return nil, fmt.Errorf("mcmf: electrical solve: %w", err)
	}
	x = x[:st.l.nP+st.l.nQ]
	if st.opts.Ledger != nil {
		charge := int64(linalg.ChebyIterationBound(st.alphaRef*st.alphaRef, solveEps)) + 2
		st.opts.Ledger.Add("mcmf-lapsolve", rounds.Charged, charge,
			"Thm 1.1 solver, n^{o(1)} log(W/eps) rounds (alpha measured)")
	}
	return x, nil
}

// sessionSolve lazily builds the electrical session on the first call and
// reweights it in place afterwards — the only place this IPM constructs a
// Laplacian: exactly once per topology.
func (st *cmsvState) sessionSolve(w []float64, b linalg.Vec, slot string) (linalg.Vec, error) {
	if st.sess == nil {
		support := st.supportGraph(w, true)
		// WarmStart stays off for charged-round parity with the fresh-build
		// path; see the maxflow sessionSolve comment.
		sess, err := electrical.NewSession(support, electrical.SessionOptions{Env: st.opts.Env})
		if err != nil {
			return nil, err
		}
		st.sess = sess
		st.wFull = make([]float64, support.M())
	} else {
		st.fillSessionWeights(w)
		if err := st.sess.Reweight(st.wFull); err != nil {
			return nil, err
		}
	}
	rhs := linalg.NewVec(st.sess.Graph().N())
	copy(rhs, b)
	return st.sess.Potentials(rhs, solveEps, slot)
}

// fillSessionWeights writes the current conductances into wFull in the
// session graph's edge order: the bipartite edges (edge-id order) followed
// by the v0 star edges (ascending P vertex, skipping a(v) = 0 vertices,
// which have no incident edges and never gain any). Degenerate bipartite
// weights are left as-is — Session.Reweight applies the same 1e-12 clamp
// supportGraph does.
func (st *cmsvState) fillSessionWeights(w []float64) {
	for i := range st.f {
		weight := 1.0
		if w != nil {
			weight = w[i]
		}
		st.wFull[i] = weight
	}
	scale := math.Pow(float64(st.l.nQ)+2, 1+2*st.eta)
	a := st.preconA()
	idx := len(st.f)
	for u := 0; u < st.l.nP; u++ {
		if a[u] > 0 {
			st.wFull[idx] = a[u] / scale
			idx++
		}
	}
}

// demandVec is the bipartite demand vector: P vertices supply b(u), Q
// vertices absorb 1.
func (st *cmsvState) demandVec() linalg.Vec {
	b := linalg.NewVec(st.l.nP + st.l.nQ)
	for u := 0; u < st.l.nP; u++ {
		b[u] = float64(st.l.b[u])
	}
	for q := 0; q < st.l.nQ; q++ {
		b[st.l.nP+q] = -1
	}
	return b
}

// run executes the MinCostFlow loop structure (Algorithm 6): Perturbation
// while the weighted congestion is large, then Progress, within the
// m^{3/7} polylog W budget.
func (st *cmsvState) run(res *Result) error {
	m := float64(st.l.nQ)
	w := math.Log(float64(st.l.dg.MaxCost()) + 2)
	budget := int(math.Ceil(budgetFactor * math.Pow(m, 3.0/7.0) * w))
	if budget < 4 {
		budget = 4
	}
	cRho := 4.0 * math.Cbrt(w) // paper: 400*sqrt(3)*log^{1/3} W; constant tamed
	rhoBound := cRho * math.Pow(m, 0.5-st.eta)
	perturbFuse := 20 * st.l.edges()

	sp := st.opts.Trace.Start("ipm")
	defer sp.End()
	for iter := 0; iter < budget; iter++ {
		if err := st.opts.Budget.Check(fmt.Sprintf("mcmf-iter-%d", iter)); err != nil {
			return err
		}
		isp := st.opts.Trace.Startf("progress-%d", iter)
		if iter > 0 {
			for res.Perturbations < perturbFuse && st.weightedRhoNorm(3) > rhoBound {
				st.perturb(res)
			}
		}
		err := st.progress(res)
		isp.End()
		if err != nil {
			return err
		}
		if mu := st.mu(); mu < 1.0/(8*m) {
			break
		}
	}
	res.FinalMu = st.mu()
	return nil
}

// mu is the mean complementarity.
func (st *cmsvState) mu() float64 {
	var sum float64
	for i := range st.f {
		sum += st.f[i] * st.s[i]
	}
	return sum / float64(len(st.f))
}

// weightedRhoNorm is ||rho||_{nu,p} = (sum nu_e |rho_e|^p)^{1/p}.
func (st *cmsvState) weightedRhoNorm(p float64) float64 {
	var sum float64
	for i := range st.rho {
		sum += st.nu[i] * math.Pow(math.Abs(st.rho[i]), p)
	}
	return math.Pow(sum, 1/p)
}

// perturb is Algorithm 8 applied at the Q vertex whose edge is most
// congested: double that edge's weight, shift the vertex dual by its slack,
// and rebalance the partner edge's weight.
func (st *cmsvState) perturb(res *Result) {
	best, bestRho := -1, 0.0
	for i := range st.rho {
		if a := math.Abs(st.rho[i]); a > bestRho {
			best, bestRho = i, a
		}
	}
	if best < 0 {
		return
	}
	e := best
	partner := e ^ 1
	_, q := st.l.ends(e)
	// y_q -= s_e shifts both slacks at q upward by s_e.
	se := st.s[e]
	st.y[q] -= se
	st.s[e] += se
	st.s[partner] += se
	st.nu[partner] += st.nu[e] * st.f[e] / math.Max(st.f[partner], 1e-12)
	st.nu[e] *= 2
	st.rho[e] = 0 // treated; recomputed next Progress
	res.Perturbations++
}

// progress is Algorithm 9: a predictor step toward the electrical
// re-routing of the demands under barrier resistances, followed by a
// corrector solve that restores the demands exactly.
func (st *cmsvState) progress(res *Result) error {
	e := st.l.edges()
	w := make([]float64, e)
	for i := 0; i < e; i++ {
		r := st.nu[i] / (st.f[i] * st.f[i])
		w[i] = 1 / r
	}
	phi, err := st.solve(w, st.demandVec(), "predictor")
	if err != nil {
		return err
	}
	ftilde := make([]float64, e)
	for i := 0; i < e; i++ {
		u, q := st.l.ends(i)
		ftilde[i] = w[i] * (phi[u] - phi[q])
		st.rho[i] = ftilde[i] / st.f[i]
	}
	// delta = min(1/(8 ||rho||_{nu,4}), 1/8)  (Algorithm 9 line 4).
	delta := 1.0 / 8
	if nrm := st.weightedRhoNorm(4); nrm > 0 {
		delta = math.Min(delta, 1/(8*nrm))
	}

	fPrime := make([]float64, e)
	sPrime := make([]float64, e)
	fSharp := make([]float64, e)
	const fMin = 1e-9
	for i := 0; i < e; i++ {
		u, q := st.l.ends(i)
		fPrime[i] = (1-delta)*st.f[i] + delta*ftilde[i]
		if fPrime[i] < fMin {
			fPrime[i] = fMin
		}
		sPrime[i] = st.s[i] + delta/(1-delta)*(phi[u]-phi[q])
		if sPrime[i] < fMin {
			sPrime[i] = fMin
		}
		fSharp[i] = (1 - delta) * st.f[i] * st.s[i] / sPrime[i]
		if fSharp[i] < fMin {
			fSharp[i] = fMin
		}
	}

	// Corrector: route the residue of f' - f# (Algorithm 9 lines 7-10).
	resid := linalg.NewVec(st.l.nP + st.l.nQ)
	for i := 0; i < e; i++ {
		u, q := st.l.ends(i)
		d := fPrime[i] - fSharp[i]
		resid[u] += d
		resid[q] -= d
	}
	w2 := make([]float64, e)
	for i := 0; i < e; i++ {
		r := sPrime[i] * sPrime[i] / ((1 - delta) * st.f[i] * st.s[i])
		w2[i] = 1 / r
	}
	phi2, err := st.solve(w2, resid, "corrector")
	if err != nil {
		return err
	}
	for i := 0; i < e; i++ {
		u, q := st.l.ends(i)
		ft2 := w2[i] * (phi2[u] - phi2[q])
		nf := fSharp[i] + ft2
		if nf < fMin {
			nf = fMin
		}
		st.f[i] = nf
		ns := sPrime[i] - sPrime[i]*ft2/fSharp[i]
		if ns < fMin {
			ns = fMin
		}
		st.s[i] = ns
	}
	res.ProgressIterations++
	return nil
}

// roundToMatching rounds the fractional bipartite assignment to an
// integral partial b-matching (Algorithm 10, lines 1-6): cap per-vertex
// sums at b, attach a super source/sink, and run Cohen rounding with
// Delta = O(1/m).
func (st *cmsvState) roundToMatching(res *Result) ([]int64, error) {
	l := st.l
	e := l.edges()
	nb := l.nP + l.nQ
	// Cap: scale down vertex neighborhoods exceeding b (line 3).
	fCap := append([]float64(nil), st.f...)
	for pass := 0; pass < 2; pass++ {
		sum := make([]float64, nb)
		for i := 0; i < e; i++ {
			u, q := l.ends(i)
			sum[u] += fCap[i]
			sum[q] += fCap[i]
		}
		for i := 0; i < e; i++ {
			u, q := l.ends(i)
			scale := 1.0
			if sum[u] > float64(l.b[u]) {
				scale = math.Min(scale, float64(l.b[u])/sum[u])
			}
			if sum[q] > float64(l.b[q]) {
				scale = math.Min(scale, float64(l.b[q])/sum[q])
			}
			fCap[i] *= scale
		}
	}
	// Super source s -> P, Q -> super sink t (line 4).
	S, T := nb, nb+1
	rdg := graph.NewDi(nb + 2)
	flows := make([]float64, 0, e+nb)
	edgeArc := make([]int, e)
	for i := 0; i < e; i++ {
		u, q := l.ends(i)
		edgeArc[i] = rdg.MustAddArc(u, q, 1, l.edgeCost(i))
		flows = append(flows, fCap[i])
	}
	sumP := make([]float64, l.nP)
	sumQ := make([]float64, l.nQ)
	for i := 0; i < e; i++ {
		u, q := l.ends(i)
		sumP[u] += fCap[i]
		sumQ[q-l.nP] += fCap[i]
	}
	for u := 0; u < l.nP; u++ {
		rdg.MustAddArc(S, u, l.b[u], 0)
		flows = append(flows, sumP[u])
	}
	for q := 0; q < l.nQ; q++ {
		rdg.MustAddArc(l.nP+q, T, 1, 0)
		flows = append(flows, sumQ[q])
	}
	delta := 1.0
	for delta > 1.0/(4*float64(e+2)) {
		delta /= 2
	}
	snapped, err := flowround.SnapToGrid(rdg, flows, S, T, delta)
	if err != nil {
		return nil, fmt.Errorf("mcmf: snapping bipartite flow: %w", err)
	}
	rounded, err := flowround.Round(rdg, snapped, S, T, delta, true, st.opts.Env)
	if err != nil {
		return nil, fmt.Errorf("mcmf: rounding bipartite flow: %w", err)
	}
	match := make([]int64, e)
	matchedQ := make([]int64, l.nQ)
	matchedP := make([]int64, l.nP)
	for i := 0; i < e; i++ {
		v := rounded[edgeArc[i]]
		if v <= 0 {
			continue
		}
		u, q := l.ends(i)
		// Enforce b-feasibility strictly (rounding keeps it via the
		// super-arcs, but clamp defensively).
		if matchedQ[q-l.nP] >= 1 || matchedP[u] >= l.b[u] {
			continue
		}
		match[i] = 1
		matchedQ[q-l.nP]++
		matchedP[u]++
	}
	_ = res
	return match, nil
}

// repair completes the partial b-matching to a full one of exactly minimum
// cost: successive shortest augmenting paths (each charged one CKKL+19
// APSP, Algorithm 10 lines 7-17), then residual negative-cycle cancelling
// to certify exact optimality (see DESIGN.md).
func (st *cmsvState) repair(match []int64, res *Result) error {
	l := st.l
	e := l.edges()
	nb := l.nP + l.nQ

	matchedP := make([]int64, l.nP)
	matchedQ := make([]int64, l.nQ)
	for i := 0; i < e; i++ {
		if match[i] == 1 {
			u, q := l.ends(i)
			matchedP[u]++
			matchedQ[q-l.nP]++
		}
	}

	// Residual graph over bipartite vertices plus a virtual source/sink.
	// Super arcs get IDs >= e so they are distinguishable both from real
	// edges and from the shortest-path "no parent" sentinel (-1).
	S, T := nb, nb+1
	superBase := e
	buildAdj := func() [][]shortestpath.Arc {
		adj := make([][]shortestpath.Arc, nb+2)
		for i := 0; i < e; i++ {
			u, q := l.ends(i)
			c := l.edgeCost(i)
			if match[i] == 0 {
				adj[u] = append(adj[u], shortestpath.Arc{To: q, Weight: c, ID: i})
			} else {
				adj[q] = append(adj[q], shortestpath.Arc{To: u, Weight: -c, ID: i})
			}
		}
		for u := 0; u < l.nP; u++ {
			if matchedP[u] < l.b[u] {
				adj[S] = append(adj[S], shortestpath.Arc{To: u, Weight: 0, ID: superBase + u})
			}
		}
		for q := 0; q < l.nQ; q++ {
			if matchedQ[q] < 1 {
				adj[l.nP+q] = append(adj[l.nP+q], shortestpath.Arc{To: T, Weight: 0, ID: superBase + l.nP + q})
			}
		}
		return adj
	}

	flip := func(ids []int) {
		for _, id := range ids {
			if id < 0 || id >= e {
				continue // super arc
			}
			u, q := l.ends(id)
			if match[id] == 0 {
				match[id] = 1
				matchedP[u]++
				matchedQ[q-l.nP]++
			} else {
				match[id] = 0
				matchedP[u]--
				matchedQ[q-l.nP]--
			}
		}
	}

	// Fuse: every cancellation strictly lowers the (integer) matching cost
	// and every augmentation raises the matched count, so the loop is
	// finite; the fuse only guards against implementation bugs.
	maxSteps := 4*l.edges()*(1+int(st.l.dg.MaxCost())) + 1000
	for step := 0; ; step++ {
		if step > maxSteps {
			return fmt.Errorf("mcmf: internal: repairing exceeded %d steps", maxSteps)
		}
		adj := buildAdj()
		// Cancel any negative residual cycle first: the rounded partial
		// matching need not be optimal for its own size, and Bellman-Ford
		// cannot run shortest paths over one anyway. At completion, no
		// negative cycle certifies exact optimality of the b-matching.
		cyc, err := findNegativeCycle(adj, nb+2)
		if err != nil {
			return fmt.Errorf("mcmf: internal: %w", err)
		}
		if cyc != nil {
			flip(cyc)
			res.CyclesCancelled++
			shortestpath.ChargeAPSP(st.opts.Ledger, nb)
			continue
		}
		var deficit int64
		for q := 0; q < l.nQ; q++ {
			deficit += 1 - matchedQ[q]
		}
		if deficit == 0 {
			return nil
		}
		sp, err := shortestpath.BellmanFord(adj, []int{S})
		if err != nil {
			return fmt.Errorf("mcmf: repairing: %w", err)
		}
		if sp.Dist[T] >= shortestpath.Inf {
			return fmt.Errorf("%w: %d unmatched Q vertices unreachable", ErrInfeasible, deficit)
		}
		shortestpath.ChargeAPSP(st.opts.Ledger, nb)
		res.RepairAugmentations++
		flip(sp.PathTo(T))
	}
}

// findNegativeCycle returns the arc IDs of one verified negative cycle in
// adj, or (nil, nil) when none exists. Bellman-Ford from a virtual
// super-source (all distances start at 0); nodes still relaxing after n
// passes sit on predecessor chains leading into negative cycles, which are
// extracted by visited-marking walks and verified by summing their weights.
func findNegativeCycle(adj [][]shortestpath.Arc, n int) ([]int, error) {
	dist := make([]int64, n)
	parentArc := make([]int, n)
	parentV := make([]int, n)
	for i := range parentArc {
		parentArc[i] = -1
		parentV[i] = -1
	}
	weightOf := make(map[int]int64)
	var lastRelaxed []int
	for round := 0; round <= n; round++ {
		changed := false
		lastRelaxed = lastRelaxed[:0]
		for v := 0; v < n; v++ {
			for _, a := range adj[v] {
				if dist[v]+a.Weight < dist[a.To] {
					dist[a.To] = dist[v] + a.Weight
					parentArc[a.To] = a.ID
					parentV[a.To] = v
					weightOf[a.ID] = a.Weight
					changed = true
					lastRelaxed = append(lastRelaxed, a.To)
				}
			}
		}
		if !changed {
			return nil, nil
		}
	}
	// Any node relaxed in the final pass has a predecessor chain entering a
	// cycle of the parent graph; such cycles have negative total weight.
	for _, cand := range lastRelaxed {
		order := make(map[int]int)
		var seq []int
		v := cand
		for v >= 0 {
			if at, seen := order[v]; seen {
				nodes := seq[at:]
				var ids []int
				var total int64
				ok := true
				for _, w := range nodes {
					id := parentArc[w]
					if id < 0 {
						ok = false
						break
					}
					ids = append(ids, id)
					total += weightOf[id]
				}
				if ok && total < 0 {
					return ids, nil
				}
				break
			}
			order[v] = len(seq)
			seq = append(seq, v)
			v = parentV[v]
		}
	}
	return nil, errors.New("negative cycle detected but extraction failed")
}
