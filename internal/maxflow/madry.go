package maxflow

import (
	"fmt"
	"math"
	"sort"

	"lapcc/internal/cc"
	"lapcc/internal/electrical"
	"lapcc/internal/flowround"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/sparsify"
	"lapcc/internal/trace"
)

// The interior-point method's fixed parameters.
const (
	// iterBudgetFactor scales the m^{3/7} U^{1/7} iteration budget.
	iterBudgetFactor = 8
	// solveEps is the per-iteration Laplacian solve precision,
	// Omega(1/poly m) as the proof requires.
	solveEps = 1e-10
)

// Options configures the interior-point max-flow path (Theorem 1.2). The
// per-iteration Laplacian systems are solved internally with CG, and each
// solve charges the Theorem 1.1 round formula calibrated by a measured
// sparsifier alpha.
type Options struct {
	// Ledger, if non-nil, receives round costs.
	Ledger *rounds.Ledger
	// FreshBuild restores the pre-session behavior: rebuild the support
	// graph and solver from scratch on every solve instead of reweighting
	// the build-once session. Kept as the benchmark baseline and the
	// differential-test oracle; charged rounds are identical either way.
	FreshBuild bool
	// DisableBoosting turns off the Boosting step (the ablation that
	// TestMaxFlowBoostingAblation runs).
	DisableBoosting bool
	// Trace, if non-nil, receives hierarchical span and cost events for
	// this call (see internal/trace); a nil tracer records nothing and
	// costs nothing.
	Trace *trace.Tracer
	// Faults, if non-nil, subjects every network primitive of the run —
	// those of the flow-rounding cascade — to the given fault plan, with
	// delivery restored by the reliable retransmission layer. The flow is
	// bit-identical to a fault-free run; only the round cost grows.
	Faults *cc.FaultPlan
	// Transport, if non-nil, physically carries every network primitive of
	// the pipeline — those of the flow-rounding cascade — through the given
	// delivery backend (see cc.Transport); nil keeps the in-process path.
	// The flow is bit-identical either way.
	Transport cc.Transport
	// Budget, if non-nil, bounds the run: it is checked at every IPM
	// iteration and propagated to the electrical session and the rounding
	// cascade. Exhaustion aborts with an error unwrapping to
	// rounds.ErrBudgetExceeded carrying the partial stats.
	Budget *rounds.Budget
	// Metrics, if non-nil, receives live counters for the run (IPM
	// iterations, boostings, rounding outcomes) and a mirror of the
	// ledger's cost stream, and is propagated to every stage of the
	// pipeline. A nil registry records nothing and costs nothing.
	Metrics *metrics.Registry
}

func (o *Options) defaults() {
	o.Budget.BindIfUnbound(o.Ledger)
}

// Result reports a Theorem 1.2 run.
type Result struct {
	// Stats carries the shared round accounting of the call.
	rounds.Stats
	// Value is the exact maximum flow value.
	Value int64
	// Flow is the per-arc integral optimal flow.
	Flow []int64
	// IPMIterations counts Augmentation+Fixing iterations executed.
	IPMIterations int
	// IterBudget is the m^{3/7}U^{1/7}-shaped budget the run was allowed.
	IterBudget int
	// Boostings counts Boosting steps.
	Boostings int
	// IPMValue is the (fractional) flow value the IPM reached before
	// rounding, in original-arc units.
	IPMValue float64
	// NegativeArcs counts original arcs whose rounded gadget-recovered flow
	// fell outside [0, capacity] and was clamped — a convergence-quality
	// signal (the final stage absorbs any slack; tests pin it small).
	NegativeArcs int
	// FinalAugmentations counts the augmenting paths of the last stage
	// (the paper needs one).
	FinalAugmentations int
}

// MaxFlow computes the exact maximum s-t flow of dg following the
// Theorem 1.2 pipeline: Algorithm 2's preconditioning edges and three-edge
// initialization gadget, Augmentation/Fixing/Boosting iterations driven by
// Laplacian solves, Lemma 4.2 rounding, and the final augmenting-path
// stage. The target value comes from the Dinic oracle, standing in for the
// outer binary search (whose O(log nU) factor the theorem absorbs into
// m^{o(1)}); see DESIGN.md for all substitutions.
func MaxFlow(dg *graph.DiGraph, s, t int, opts Options) (*Result, error) {
	opts.defaults()
	opts.Metrics.MirrorLedger(opts.Ledger)
	snap := rounds.Snap(opts.Ledger)
	spansBefore := opts.Trace.SpanCount()
	res, err := maxFlowImpl(dg, s, t, opts)
	if res != nil {
		res.Stats = snap.Stats()
		res.Spans = opts.Trace.SpanCount() - spansBefore
		if reg := opts.Metrics; reg != nil {
			reg.Counter("lapcc_maxflow_runs_total", "MaxFlow calls.").Inc()
			reg.Counter("lapcc_maxflow_ipm_iterations_total", "Augmentation+Fixing IPM iterations.").Add(int64(res.IPMIterations))
			reg.Counter("lapcc_maxflow_boostings_total", "Boosting steps.").Add(int64(res.Boostings))
			reg.Counter("lapcc_maxflow_negative_arcs_total", "Rounded arc flows clamped into capacity range.").Add(int64(res.NegativeArcs))
			reg.Counter("lapcc_maxflow_final_augmentations_total", "Augmenting paths of the final stage.").Add(int64(res.FinalAugmentations))
		}
	}
	return res, err
}

func maxFlowImpl(dg *graph.DiGraph, s, t int, opts Options) (*Result, error) {
	if err := checkEndpoints(dg, s, t); err != nil {
		return nil, err
	}
	res := &Result{Flow: make([]int64, dg.M())}
	if dg.M() == 0 {
		return res, nil
	}
	tr := opts.Trace
	tr.Attach(opts.Ledger)
	sp := tr.Start("maxflow")
	defer sp.End()

	// Target value; stands in for the outer binary search over F (whose
	// O(log nU) factor the theorem absorbs into m^{o(1)}).
	osp := tr.Start("oracle")
	fstar, _, err := Dinic(dg, s, t)
	osp.End()
	if err != nil {
		return nil, err
	}
	if fstar == 0 {
		return res, nil
	}

	isp := tr.Start("init")
	ipm, err := newIPMState(dg, s, t, fstar, opts)
	isp.End()
	if err != nil {
		return nil, err
	}
	if err := ipm.run(res); err != nil {
		return nil, err
	}
	rsp := tr.Start("round")
	rounded, err := ipm.roundFlow(res)
	rsp.End()
	if err != nil {
		return nil, err
	}
	fsp := tr.Start("finish")
	err = finishWithAugmentation(dg, s, t, fstar, rounded, opts.Ledger, res)
	fsp.End()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ipmState holds the instance built by Algorithm 2's initialization:
//
//   - every original arc e = (u,v) of capacity u_e becomes the symmetric
//     edge (u,v) plus the gadget edges (s,v) and (u,t), all with two-sided
//     capacity u_e (lines 2-4). The gadget ships u_e units s -> v -> u -> t
//     using (u,v) backward, so a flow g in [0, u_e] on the original arc
//     corresponds to f(u,v) = g - u_e; legality of the recovered flow is
//     structural rather than hoped-for. Gadget edges whose endpoints
//     coincide (arcs touching s or t) degenerate to self-loops and are
//     dropped; the two remaining edges still ship u_e.
//   - m preconditioning (t,s) edges with two-sided capacity 2U (line 1).
//
// The total demand is fstar + sum(u_e) + 2mU: the directed optimum plus
// the gadget and preconditioner shipping.
type ipmState struct {
	dg     *graph.DiGraph
	s, t   int
	opts   Options
	m      int // original arcs (the first m edges)
	total  int
	from   []int
	to     []int
	hi     []float64 // upper flow bound per edge
	lo     []float64 // lower flow bound per edge
	f      []float64
	boost  []float64 // resistance multiplier from Boosting
	eta    float64
	budget int
	demand float64
	fstar  float64

	alphaRef float64 // measured sparsifier quality for charged solves

	// sess is the build-once/reweight-per-iteration electrical session over
	// the support topology (fixed for the whole IPM). It is created at the
	// first solve — the first barrier weights are already known then — and
	// every later solve only swaps weights in place. Nil under FreshBuild.
	sess *electrical.Session

	// solveHook, when non-nil, observes every electrical solve's inputs —
	// a test/bench seam for capturing a run's weight schedule.
	solveHook func(w []float64, b linalg.Vec, slot string)
}

func newIPMState(dg *graph.DiGraph, s, t int, fstar int64, opts Options) (*ipmState, error) {
	m := dg.M()
	u := float64(dg.MaxCapacity())
	st := &ipmState{dg: dg, s: s, t: t, opts: opts, m: m}
	addEdge := func(from, to int, capacity float64) {
		st.from = append(st.from, from)
		st.to = append(st.to, to)
		st.hi = append(st.hi, capacity)
		st.lo = append(st.lo, -capacity)
	}
	var gadgetShip float64
	for _, a := range dg.Arcs() {
		addEdge(a.From, a.To, float64(a.Cap))
	}
	for _, a := range dg.Arcs() {
		// Gadget edges (Algorithm 2 lines 2-4); self-loops dropped.
		if a.To != s {
			addEdge(s, a.To, float64(a.Cap))
		}
		if a.From != t {
			addEdge(a.From, t, float64(a.Cap))
		}
		gadgetShip += float64(a.Cap)
	}
	for i := 0; i < m; i++ {
		addEdge(t, s, 2*u)
	}
	st.total = len(st.from)
	st.f = make([]float64, st.total)
	st.boost = make([]float64, st.total)
	for i := range st.boost {
		st.boost[i] = 1
	}
	// eta = 1/14 - (1/7) log_m U, so the m^{1/2 - eta} iteration count is
	// m^{3/7} U^{1/7} (MaxFlow, Algorithm 2 line 9).
	logmU := 0.0
	if m > 1 && u > 1 {
		logmU = math.Log(u) / math.Log(float64(m))
	}
	st.eta = 1.0/14.0 - logmU/7.0
	if st.eta < 0 {
		st.eta = 0
	}
	iters := iterBudgetFactor * math.Pow(float64(m), 0.5-st.eta) * math.Log(float64(m)*u+2)
	st.budget = int(math.Ceil(iters))
	// Demand: original optimum plus the gadget shipping plus fully
	// saturated preconditioners (backward, i.e. s->t through (t,s)).
	st.fstar = float64(fstar)
	st.demand = st.fstar + gadgetShip + float64(2*m)*u

	// Calibrate the charged-solve formula once with a real sparsifier of
	// the support (internal measurement; see DESIGN.md).
	support := st.supportGraph(nil)
	sres, err := sparsify.Sparsify(support, sparsify.Options{Metrics: opts.Metrics})
	if err != nil {
		return nil, fmt.Errorf("maxflow: calibrating solver charge: %w", err)
	}
	alpha, err := sparsify.MeasureAlpha(support, sres.H, 120)
	if err != nil {
		return nil, fmt.Errorf("maxflow: calibrating solver charge: %w", err)
	}
	st.alphaRef = alpha
	return st, nil
}

// supportGraph builds the weighted undirected support with conductances w
// (nil w = unit weights).
func (st *ipmState) supportGraph(w []float64) *graph.Graph {
	g := graph.New(st.dg.N())
	for i := 0; i < st.total; i++ {
		weight := 1.0
		if w != nil {
			weight = w[i]
		}
		if weight <= 0 || math.IsInf(weight, 0) || math.IsNaN(weight) {
			weight = 1e-12
		}
		g.MustAddEdge(st.from[i], st.to[i], weight)
	}
	return g
}

// value returns the current s-t value on the full preconditioned instance.
func (st *ipmState) value() float64 {
	var v float64
	for i := 0; i < st.total; i++ {
		if st.from[i] == st.s {
			v += st.f[i]
		}
		if st.to[i] == st.s {
			v -= st.f[i]
		}
	}
	return v
}

// solve runs one Laplacian solve on the current support and charges the
// Theorem 1.1 formula for it. The default path reweights the build-once
// session; FreshBuild rebuilds everything per solve (baseline/oracle). slot
// names the warm-start lane ("aug" or "fix"); the two right-hand-side
// families must not clobber each other's seeds. Charged rounds are
// identical on both paths: the formula is topology-calibrated.
func (st *ipmState) solve(w []float64, b linalg.Vec, slot string) (linalg.Vec, error) {
	if st.solveHook != nil {
		st.solveHook(w, b, slot)
	}
	var x linalg.Vec
	var err error
	if st.opts.FreshBuild {
		x, err = st.solveFreshBaseline(w, b)
	} else {
		x, err = st.sessionSolve(w, b, slot)
	}
	if err != nil {
		return nil, fmt.Errorf("maxflow: electrical solve: %w", err)
	}
	if st.opts.Ledger != nil {
		charge := int64(linalg.ChebyIterationBound(st.alphaRef*st.alphaRef, solveEps)) + 2
		st.opts.Ledger.Add("maxflow-lapsolve", rounds.Charged, charge,
			"Thm 1.1 solver, n^{o(1)} log(U/eps) rounds (alpha measured)")
	}
	return x, nil
}

// sessionSolve lazily builds the electrical session on the first call (the
// support topology is fixed for the whole IPM) and reweights it in place on
// every later call. This is the only place the IPM constructs a Laplacian
// solver: exactly once per topology.
func (st *ipmState) sessionSolve(w []float64, b linalg.Vec, slot string) (linalg.Vec, error) {
	if st.sess == nil {
		// WarmStart stays off: a warm-seeded solve answers within the same
		// tolerance but not bitwise, and over hundreds of IPM iterations the
		// drift shifts the trajectory and with it the charged-round total.
		// The session's win here is structural reuse; cold solves keep the
		// path bit-identical to a fresh build every iteration.
		sess, err := electrical.NewSession(st.supportGraph(w), electrical.SessionOptions{Trace: st.opts.Trace, Budget: st.opts.Budget, Metrics: st.opts.Metrics})
		if err != nil {
			return nil, err
		}
		st.sess = sess
	} else if err := st.sess.Reweight(w); err != nil {
		return nil, err
	}
	return st.sess.Potentials(b, solveEps, slot)
}

// solveFreshBaseline is the pre-session behavior: a fresh support graph and
// Laplacian per solve. Kept for the wall-clock benchmark baseline and as the
// differential-test oracle.
func (st *ipmState) solveFreshBaseline(w []float64, b linalg.Vec) (linalg.Vec, error) {
	return linalg.LaplacianCGSolver(linalg.NewLaplacian(st.supportGraph(w)), solveEps)(b)
}

// run executes the progress loop (Algorithm 2 lines 6-18): Augmentation and
// Fixing steps, with Boosting when congestion concentrates.
func (st *ipmState) run(res *Result) error {
	sp := st.opts.Trace.Start("ipm")
	defer sp.End()
	res.IterBudget = st.budget
	n := st.dg.N()
	w := make([]float64, st.total)
	rho := make([]float64, st.total)

	prevRemaining := math.Inf(1)
	stagnant := 0
	for iter := 0; iter < st.budget; iter++ {
		if err := st.opts.Budget.Check(fmt.Sprintf("maxflow-iter-%d", iter)); err != nil {
			return err
		}
		remaining := st.demand - st.value()
		// Stop when the whole demand is (almost) routed: the recovered
		// original flow is then within one unit of optimal and rounding
		// plus one augmenting path finishes, as in the paper. A stagnation
		// guard hands persistent numerical stalls to the final stage.
		if remaining <= 0.25 {
			break
		}
		if remaining > prevRemaining-1e-9 {
			stagnant++
			if stagnant > 25 {
				break
			}
		} else {
			stagnant = 0
		}
		prevRemaining = remaining
		isp := st.opts.Trace.Startf("iter-%d", iter)
		// Resistances from the logarithmic barrier (Augmentation line 1),
		// scaled by the Boosting multipliers.
		for i := 0; i < st.total; i++ {
			up := st.hi[i] - st.f[i]
			dn := st.f[i] - st.lo[i]
			r := (1/(up*up) + 1/(dn*dn)) * st.boost[i]
			w[i] = 1 / r
		}

		// Augmentation (Algorithm 3): solve L phi = R * chi_{s,t}.
		b := linalg.NewVec(n)
		b[st.s] = -remaining
		b[st.t] = remaining
		phi, err := st.solve(w, b, "aug")
		if err != nil {
			return err
		}
		res.IPMIterations++

		maxCong := 0.0
		var rho3 float64
		ftilde := make([]float64, st.total)
		for i := 0; i < st.total; i++ {
			ftilde[i] = w[i] * (phi[st.to[i]] - phi[st.from[i]])
			margin := math.Min(st.hi[i]-st.f[i], st.f[i]-st.lo[i])
			rho[i] = ftilde[i] / margin
			a := math.Abs(rho[i])
			if a > maxCong {
				maxCong = a
			}
			rho3 += a * a * a
		}
		rho3 = math.Cbrt(rho3)

		// Step size: shrink with the congestion 3-norm (the paper's
		// delta = 1/(33 ||rho||_3) shape) and never cross a capacity.
		delta := 1.0
		if rho3 > 0 {
			delta = math.Min(delta, 1/(1+rho3))
		}
		if maxCong > 0 {
			delta = math.Min(delta, 0.5/maxCong)
		}

		// Boosting trigger (Algorithm 2 line 11): when congestion
		// concentrates on few edges so hard that progress stalls, boost
		// those edges' resistances instead of stepping. The concentration
		// test compares the max against the 3-norm (which a handful of
		// outliers dominates only when they are genuine bottlenecks).
		stalled := delta < 0.02
		concentrated := maxCong > 4*rho3/math.Cbrt(float64(st.total))
		if !st.opts.DisableBoosting && stalled && concentrated {
			st.boostTop(rho, res)
			if st.opts.Ledger != nil {
				st.opts.Ledger.Add("maxflow-boost", rounds.Measured, 1, "Boosting, O(1) rounds")
			}
			isp.End()
			continue
		}
		for i := 0; i < st.total; i++ {
			st.f[i] += delta * ftilde[i]
		}

		// Fixing (Algorithm 4): repair the conservation drift from the
		// inexact solve with a second electrical flow.
		err = st.fix(w)
		isp.End()
		if err != nil {
			return err
		}
	}
	res.IPMValue, _ = st.recovered()
	return nil
}

// recovered returns the s-t value of the fractional original flow
// g_e = f_e + u_e implied by the gadget encoding, along with the total
// out-of-range mass (g below 0 or above capacity) — ideally both converge
// to (fstar, 0).
func (st *ipmState) recovered() (value, overflow float64) {
	for i := 0; i < st.m; i++ {
		g := st.f[i] + st.hi[i]
		if g < 0 {
			overflow += -g
			g = 0
		}
		if g > st.hi[i] {
			overflow += g - st.hi[i]
			g = st.hi[i]
		}
		if st.from[i] == st.s {
			value += g
		}
		if st.to[i] == st.s {
			value -= g
		}
	}
	return value, overflow
}

// fix repairs conservation at all vertices except s and t.
func (st *ipmState) fix(w []float64) error {
	n := st.dg.N()
	imbalance := linalg.NewVec(n)
	for i := 0; i < st.total; i++ {
		imbalance[st.from[i]] -= st.f[i]
		imbalance[st.to[i]] += st.f[i]
	}
	var residual float64
	for v := 0; v < n; v++ {
		if v != st.s && v != st.t {
			residual += math.Abs(imbalance[v])
		}
	}
	if residual < 1e-12 {
		return nil
	}
	b := linalg.NewVec(n)
	var slack float64
	for v := 0; v < n; v++ {
		if v != st.s && v != st.t {
			b[v] = -imbalance[v]
			slack += imbalance[v]
		}
	}
	// Absorb the counter-imbalance at s and t so b sums to zero.
	b[st.s] = slack / 2
	b[st.t] = slack / 2
	phi, err := st.solve(w, b, "fix")
	if err != nil {
		return err
	}
	for i := 0; i < st.total; i++ {
		theta := w[i] * (phi[st.to[i]] - phi[st.from[i]])
		// Clamp so the repair cannot cross a capacity.
		up := st.hi[i] - st.f[i]
		dn := st.f[i] - st.lo[i]
		if theta > 0.9*up {
			theta = 0.9 * up
		}
		if theta < -0.9*dn {
			theta = -0.9 * dn
		}
		st.f[i] += theta
	}
	return nil
}

// boostTop doubles the resistance multiplier of the m^{4 eta} most
// congested edges (Algorithm 5's arc-splitting, realized as a series
// -resistance increase; see DESIGN.md "Substitutions").
func (st *ipmState) boostTop(rho []float64, res *Result) {
	k := int(math.Ceil(math.Pow(float64(st.m), 4*st.eta)))
	if k < 1 {
		k = 1
	}
	if k > st.total {
		k = st.total
	}
	idx := make([]int, st.total)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return math.Abs(rho[idx[a]]) > math.Abs(rho[idx[b]])
	})
	for _, i := range idx[:k] {
		if st.boost[i] < 1<<20 {
			st.boost[i] *= 2
		}
	}
	res.Boostings++
}

// roundFlow rounds the fractional IPM flow to integers (Lemma 4.2 with
// Delta = O(1/m)) and recovers the original arc flows from the gadget
// encoding, g_e = f_e + u_e, clamped into [0, u_e]; out-of-range rounded
// values are counted in Result.NegativeArcs (a convergence-quality signal —
// zero when the IPM finished).
func (st *ipmState) roundFlow(res *Result) ([]int64, error) {
	// Cancel circulations in the fractional flow first: cycles contribute
	// no value but, once rounded, strand units the legality extraction
	// must then discard (internal computation, divergence-preserving,
	// hence always safe).
	st.cancelCycles(1e-7)

	// Orient every edge by the sign of its flow and round |f| on the
	// resulting digraph; the flow is an s-t flow, as Lemma 4.2 requires.
	rdg := graph.NewDi(st.dg.N())
	absF := make([]float64, st.total)
	for i := 0; i < st.total; i++ {
		v := st.f[i]
		if v >= 0 {
			rdg.MustAddArc(st.from[i], st.to[i], int64(st.hi[i]), 0)
			absF[i] = v
		} else {
			rdg.MustAddArc(st.to[i], st.from[i], int64(st.hi[i]), 0)
			absF[i] = -v
		}
	}
	delta := 1.0
	for delta > 1.0/(4*float64(st.m)) {
		delta /= 2
	}
	snapped, err := flowround.SnapToGrid(rdg, absF, st.s, st.t, delta)
	if err != nil {
		return nil, fmt.Errorf("maxflow: snapping IPM flow: %w", err)
	}
	rounded, err := flowround.RoundWith(rdg, snapped, st.s, st.t, delta, false,
		flowround.Options{Ledger: st.opts.Ledger, Trace: st.opts.Trace, Faults: st.opts.Faults, Transport: st.opts.Transport, Budget: st.opts.Budget, Metrics: st.opts.Metrics})
	if err != nil {
		return nil, fmt.Errorf("maxflow: rounding IPM flow: %w", err)
	}

	legal := make([]int64, st.m)
	for i := 0; i < st.m; i++ {
		signed := rounded[i]
		if st.f[i] < 0 {
			signed = -signed
		}
		g := signed + int64(st.hi[i])
		if g < 0 || g > int64(st.hi[i]) {
			res.NegativeArcs++
		}
		if g < 0 {
			g = 0
		}
		if g > int64(st.hi[i]) {
			g = int64(st.hi[i])
		}
		legal[i] = g
	}
	return legal, nil
}

// finishWithAugmentation takes a capacity-feasible (but possibly
// non-conserving, because backward flows were dropped) integral flow
// candidate, reduces it to a feasible flow, and augments to the exact
// optimum, charging one APSP per augmenting path (Algorithm 2 lines 20-21
// with the CKKL+19 shortest-path subroutine).
func finishWithAugmentation(dg *graph.DiGraph, s, t int, fstar int64, candidate []int64, led *rounds.Ledger, res *Result) error {
	feasible := maxSubflow(dg, candidate, s, t)
	value, err := CheckFlow(dg, feasible, s, t)
	if err != nil {
		return fmt.Errorf("maxflow: internal: extracted flow infeasible: %w", err)
	}
	if led != nil {
		// Making the O(m)-word rounded support globally known for the
		// internal extraction costs one gather round.
		led.Add("maxflow-gather-support", rounds.Measured,
			rounds.TrivialGatherRounds(dg.N(), dg.M(), dg.MaxCapacity()), "gather rounded support")
	}
	// Residual augmentation to optimality.
	r := newResidual(dg)
	for i := range feasible {
		r.cap[2*i] -= feasible[i]
		r.cap[2*i+1] += feasible[i]
	}
	parent := make([]int, r.n)
	for value < fstar {
		for i := range parent {
			parent[i] = -1
		}
		parent[s] = -2
		queue := []int{s}
		for len(queue) > 0 && parent[t] == -1 {
			v := queue[0]
			queue = queue[1:]
			for _, ai := range r.adj[v] {
				if w := r.head[ai]; r.cap[ai] > 0 && parent[w] == -1 {
					parent[w] = ai
					queue = append(queue, w)
				}
			}
		}
		if parent[t] == -1 {
			return fmt.Errorf("maxflow: internal: no augmenting path at value %d < %d", value, fstar)
		}
		bottleneck := fstar - value
		for v := t; v != s; {
			ai := parent[v]
			if r.cap[ai] < bottleneck {
				bottleneck = r.cap[ai]
			}
			v = r.head[ai^1]
		}
		for v := t; v != s; {
			ai := parent[v]
			r.cap[ai] -= bottleneck
			r.cap[ai^1] += bottleneck
			v = r.head[ai^1]
		}
		value += bottleneck
		res.FinalAugmentations++
		if led != nil {
			led.Add("maxflow-final-augment", rounds.Charged, rounds.APSPRounds(r.n), rounds.CiteAPSP)
		}
	}
	for i := range res.Flow {
		res.Flow[i] = r.flowOn(i)
	}
	res.Value = value
	return nil
}

// cancelCycles removes directed cycles from the sign-oriented support of
// the fractional flow by repeated DFS and bottleneck subtraction. The
// divergence at every vertex — and hence the flow value — is unchanged.
func (st *ipmState) cancelCycles(tol float64) {
	n := st.dg.N()
	for {
		// Build the sign-oriented adjacency of edges above the tolerance.
		type halfArc struct {
			edge int
			to   int
		}
		adj := make([][]halfArc, n)
		for i := 0; i < st.total; i++ {
			if st.f[i] > tol {
				adj[st.from[i]] = append(adj[st.from[i]], halfArc{edge: i, to: st.to[i]})
			} else if st.f[i] < -tol {
				adj[st.to[i]] = append(adj[st.to[i]], halfArc{edge: i, to: st.from[i]})
			}
		}
		// Iterative DFS for a directed cycle.
		color := make([]int8, n) // 0 white, 1 gray, 2 black
		parentEdge := make([]int, n)
		parentV := make([]int, n)
		var cycle []int
		var found bool
		for root := 0; root < n && !found; root++ {
			if color[root] != 0 {
				continue
			}
			stack := []int{root}
			parentV[root] = -1
			for len(stack) > 0 && !found {
				v := stack[len(stack)-1]
				if color[v] == 0 {
					color[v] = 1
				}
				advanced := false
				for _, ha := range adj[v] {
					if color[ha.to] == 1 {
						// Back edge: collect the cycle v -> ... -> ha.to -> v.
						cycle = []int{ha.edge}
						for x := v; x != ha.to; x = parentV[x] {
							cycle = append(cycle, parentEdge[x])
						}
						found = true
						break
					}
					if color[ha.to] == 0 {
						parentEdge[ha.to] = ha.edge
						parentV[ha.to] = v
						stack = append(stack, ha.to)
						advanced = true
						break
					}
				}
				if found {
					break
				}
				if !advanced {
					color[v] = 2
					stack = stack[:len(stack)-1]
				}
			}
		}
		if !found {
			return
		}
		// Subtract the bottleneck along the cycle (respecting each edge's
		// traversal direction).
		bottleneck := math.Inf(1)
		for _, e := range cycle {
			if a := math.Abs(st.f[e]); a < bottleneck {
				bottleneck = a
			}
		}
		for _, e := range cycle {
			if st.f[e] > 0 {
				st.f[e] -= bottleneck
			} else {
				st.f[e] += bottleneck
			}
		}
	}
}

// maxSubflow extracts the maximum conserving s-t flow bounded arc-wise by
// the (capacity-feasible, possibly non-conserving) candidate: a Dinic run
// on the candidate's support. This is internal computation on the
// globally-gathered rounded support; it loses the minimum possible value
// relative to the candidate.
func maxSubflow(dg *graph.DiGraph, candidate []int64, s, t int) []int64 {
	r := &residualNet{
		n:    dg.N(),
		head: make([]int, 0, 2*dg.M()),
		cap:  make([]int64, 0, 2*dg.M()),
		adj:  make([][]int, dg.N()),
	}
	for i, a := range dg.Arcs() {
		c := candidate[i]
		if c < 0 {
			c = 0
		}
		if c > a.Cap {
			c = a.Cap
		}
		r.addPair(a.From, a.To, c)
	}
	r.run(s, t)
	out := make([]int64, dg.M())
	for i := range out {
		out[i] = r.flowOn(i)
	}
	return out
}
