package lapsolver

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"lapcc/internal/linalg"
	"lapcc/internal/rounds"
	"lapcc/internal/trace"
)

// SolveLanes solves L_G x_j = b_j for every right-hand side in bs, exactly
// as a loop of Solve calls would: the same answer bits, Stats and errors,
// and the same ledger entries, spans, budget checks and metrics in the same
// order. On error it stops at the failing right-hand side j: xs holds the
// j answers before it, and stats j+1 entries, the last one the failing
// call's.
//
// The right-hand sides run in groups of up to linalg.LaneWidth, in order,
// as lanes of one Chebyshev iteration (linalg.PreconChebyLanes). A group's
// lanes take their kappa attempts in lockstep, so each preconditioner
// solve is one pass over the factor for all of them; a lane leaves the
// group when it is accepted, falls back to the dense solve, or fails. A
// group holds one right-hand side where lanes cannot share work: on the CG
// path (above linalg.FactorMaxN, or a sparsifier that did not factor),
// under WarmStart, where each solve seeds the next, and for a pair
// (linalg.LaneGroup).
//
// Nothing a lane does reaches the ledger, tracer, budget or metrics until
// it is committed, and a lane is committed only once every lane before it
// is done: its attempts are then committed one by one, each after its
// budget check, as Solve would have run them. Work done ahead for a lane
// that a budget stop or an error never reaches is dropped.
func (s *Solver) SolveLanes(bs []linalg.Vec, eps float64) ([]linalg.Vec, []Stats, error) {
	g := group{s: s, eps: eps, xs: make([]linalg.Vec, 0, len(bs)), stats: make([]Stats, 0, len(bs))}
	for len(bs) > 0 {
		k := s.groupWidth(bs, eps)
		if err := g.run(bs[:k]); err != nil {
			return g.xs, g.stats, err
		}
		bs = bs[k:]
	}
	return g.xs, g.stats, nil
}

// groupWidth returns how many of bs the next group carries.
func (s *Solver) groupWidth(bs []linalg.Vec, eps float64) int {
	if s.hf == nil || s.opts.WarmStart || !(eps > 0 && eps <= 0.5) {
		return 1
	}
	k := 0
	for k < len(bs) && k < linalg.LaneWidth && len(bs[k]) == s.g.N() {
		k++
	}
	return linalg.LaneGroup(k)
}

// group runs SolveLanes' groups one after another, collecting their
// committed answers and stats.
type group struct {
	s     *Solver
	eps   float64
	lanes []lane
	head  int          // the first lane not yet committed in full
	ls    *laneScratch // a lane group's, while it runs
	xs    []linalg.Vec
	stats []Stats
}

// laneScratch is a lane group's work vectors, each linalg.LaneWidth
// interleaved lanes: the Chebyshev iteration's, the group's right-hand
// sides, and the certificate's residual and preconditioner output.
type laneScratch struct {
	cheby   linalg.ChebyScratch
	b, r, p linalg.Vec
}

// laneScratches lends lane groups their scratch, one group at a time:
// nine vectors of linalg.LaneWidth*n entries are more than every pooled
// session should keep between requests. It keeps at most GOMAXPROCS of
// them, as many as groups can run at once. Unlike a sync.Pool it never
// drops one at random, so a solve's allocations stay deterministic.
var laneScratches struct {
	sync.Mutex
	free []*laneScratch
}

// getLaneScratch returns a lane scratch whose own vectors hold m entries.
func getLaneScratch(m int) *laneScratch {
	ls := new(laneScratch)
	laneScratches.Lock()
	if n := len(laneScratches.free); n > 0 {
		ls = laneScratches.free[n-1]
		laneScratches.free = laneScratches.free[:n-1]
	}
	laneScratches.Unlock()
	if len(ls.b) != m {
		ls.b, ls.r, ls.p = linalg.NewVec(m), linalg.NewVec(m), linalg.NewVec(m)
	}
	return ls
}

func putLaneScratch(ls *laneScratch) {
	laneScratches.Lock()
	defer laneScratches.Unlock()
	if len(laneScratches.free) < runtime.GOMAXPROCS(0) {
		laneScratches.free = append(laneScratches.free, ls)
	}
}

// lane is one right-hand side's run through its group: the compute side,
// which runs ahead, and the commit side, which replays it in order.
type lane struct {
	// Compute side.
	exp     int        // the solve runs on b·2^-exp (normalize)
	rhs     linalg.Vec // b·2^-exp, mean-free
	bNorm   float64    // rhs's preconditioner norm
	kappa   float64    // the next attempt's kappa
	running bool       // takes part in the next attempt
	x0      linalg.Vec // warm seed (one-lane groups)
	tol     float64    // inner tolerance on the CG path
	// hSolve is the preconditioner solve with L_H; on the CG path the
	// tighten rung swaps in a tighter one for the rest of this lane.
	hSolve    func(dst, r linalg.Vec) error
	tightened bool
	setupErr  error        // a bad right-hand side, eps or norm
	setup     linalg.Calls // lane groups: the setup's kernel calls
	pend      []attempt    // attempts computed, not yet committed

	// Commit side.
	begun, setupDone, opened bool
	snap                     rounds.Snapshot
	spans                    int
	sp, asp                  *trace.Span // the "lapsolve" span and the open attempt's
	st                       Stats
	x                        linalg.Vec // the answer, b·2^-exp scaled
	err                      error
}

// outcome is what one attempt decided for its lane.
type outcome int

const (
	retry    outcome = iota // rejected: next attempt at 4 kappa
	accepted                // the certificate holds
	tighten                 // CG path: retry at a 100x tighter inner tolerance
	dense                   // the dense fallback answers
	failed                  // NoEscalation: the attempt's error ends the lane
)

// attempt is one kappa attempt of one lane as computed, kept for its
// commit.
type attempt struct {
	kappa    float64
	steps    int          // lapsolve-cheby-iter ledger entries
	iters    int          // Chebyshev iterations
	calls    linalg.Calls // lane groups: the attempt's kernel calls
	chebyErr error        // ends the lane before the certificate
	normErr  error        // ends the lane after the certificate's residual
	outcome  outcome
	err      error      // failed: the lane's error
	x        linalg.Vec // accepted: the iterate
}

// run solves one group of right-hand sides: the compute side runs each
// kappa attempt for every running lane at once, and after each attempt
// the commit side catches up as far as lanes are done. The first lane not
// yet committed in full, the head, commits as it goes: its budget check
// runs before each attempt, as Solve's does, so the head never computes an
// attempt its budget refuses.
func (g *group) run(bs []linalg.Vec) error {
	g.lanes = make([]lane, len(bs))
	g.head = 0
	if len(bs) > 1 {
		g.ls = getLaneScratch(linalg.LaneWidth * g.s.g.N())
		defer func() {
			putLaneScratch(g.ls)
			g.ls = nil
		}()
	}
	g.begin(&g.lanes[0])
	g.setup(bs)
	for {
		if err := g.advance(); err != nil {
			return err
		}
		if g.head == len(g.lanes) {
			return nil
		}
		h := &g.lanes[g.head]
		if err := g.open(h); err != nil {
			h.err = err
			g.finish(h)
			return err
		}
		g.attempt()
	}
}

// setup prepares every lane: its bad input, or its normalized mean-free
// right-hand side, its preconditioner norm, and its first kappa.
func (g *group) setup(bs []linalg.Vec) {
	s := g.s
	n := s.g.N()
	for i, b := range bs {
		l := &g.lanes[i]
		l.kappa, l.tol = s.opts.KappaHint, s.opts.InternalTol
		if len(b) != n {
			l.setupErr = fmt.Errorf("%w: %d for n=%d", ErrBadRHS, len(b), n)
			continue
		}
		if g.eps <= 0 || g.eps > 0.5 {
			l.setupErr = fmt.Errorf("lapsolver: eps %v outside (0, 1/2]", g.eps)
			continue
		}
		l.rhs, l.exp = normalize(b)
		l.running = true
	}
	if len(bs) == 1 {
		l := &g.lanes[0]
		if !l.running {
			return
		}
		linalg.RemoveMean(l.rhs)
		if l.rhs.Norm2() == 0 {
			l.running, l.x = false, linalg.NewVec(n)
			return
		}
		l.hSolve = s.hSolver(l.tol)
		var err error
		if l.bNorm, err = s.precondNorm(l.hSolve, l.rhs); err != nil {
			l.running, l.setupErr = false, err
			return
		}
		if s.opts.WarmStart {
			g.warmSeed(l)
		}
		return
	}

	// A lane group: the same steps on every lane at once.
	b4 := g.ls.b
	b4.Zero()
	for q := range g.lanes {
		linalg.SetLane(b4, q, g.lanes[q].rhs)
	}
	var mean, norm linalg.Calls
	linalg.RemoveMeanLanes(b4, &mean)
	nn := linalg.DotLanes(b4, b4, &mean)
	pn := g.ls.p
	s.hf.PseudoSolveLanesTo(pn, b4, &norm)
	bb := linalg.DotLanes(b4, pn, &norm)
	for q := range g.lanes {
		l := &g.lanes[q]
		linalg.GetLane(l.rhs, b4, q)
		l.setup = mean
		if math.Sqrt(nn[q]) == 0 {
			l.running, l.x = false, linalg.NewVec(n)
			continue
		}
		l.setup.Add(norm)
		l.bNorm = sqrtNonNeg(bb[q])
	}
}

// warmSeed sets a one-lane group's first kappa and Chebyshev seed from the
// last accepted solve.
func (g *group) warmSeed(l *lane) {
	s := g.s
	if s.warmKappa > 0 {
		// Start at the previously accepted kappa: skips the doubling
		// attempts the last solve already paid for.
		l.kappa = s.warmKappa
	}
	if s.warmX != nil && s.warmB != nil {
		// Seed Chebyshev with the previous potentials, scaled by the
		// projection of the new rhs onto the old one (IPM right-hand
		// sides keep their direction and shrink in magnitude).
		den := s.warmB.Dot(s.warmB)
		if den > 0 {
			c := l.rhs.Dot(s.warmB) / den
			if !math.IsNaN(c) && !math.IsInf(c, 0) {
				l.x0 = s.warmX.Clone()
				l.x0.Scale(c)
			}
		}
	}
}

// attempt runs the next kappa attempt for every running lane: one lane
// alone on the one-lane kernels, two or more as lanes.
func (g *group) attempt() {
	var run [linalg.LaneWidth]int
	k := 0
	for q := range g.lanes {
		if g.lanes[q].running {
			run[k] = q
			k++
		}
	}
	if k == 1 {
		// The lane left running is the head, so it commits as it goes and
		// may count its kernel calls as it makes them.
		g.attemptOne(&g.lanes[run[0]])
		return
	}
	g.attemptLanes(run[:k])
}

// params returns an attempt's certificate target, Chebyshev eps and
// plateau window at kappa.
func (g *group) params(kappa float64) (target, chebyEps float64, window int) {
	// Residual acceptance in the preconditioner norm: with
	// (1/a) L_H <= L_G <= a L_H and a^2 <= kappa,
	//   ||x - x*||_A / ||x*||_A <= a * ||r||_{B+} / ||b||_{B+},
	// so accepting at ratio <= eps/sqrt(kappa) certifies the target. The
	// iteration runs at that tighter internal target so the certificate
	// can fire.
	target = max(g.eps/math.Sqrt(kappa), 1e-14)
	chebyEps = min(target, 0.5)
	window = linalg.StagnationWindowFor(kappa)
	if g.s.opts.NoEscalation {
		window = 0
	}
	return target, chebyEps, window
}

// attemptOne runs one lane's attempt on the one-lane kernels, counting its
// kernel calls as it goes.
func (g *group) attemptOne(l *lane) {
	s := g.s
	a := attempt{kappa: l.kappa}
	if l.hSolve == nil {
		l.hSolve = s.hSolver(l.tol)
	}
	hSolve := l.hSolve
	scale := math.Sqrt(l.kappa)
	bSolve := func(dst, r linalg.Vec) error {
		if err := hSolve(dst, r); err != nil {
			return err
		}
		dst.Scale(1 / scale) // (sqrt(kappa) L_H)^+
		return nil
	}
	target, chebyEps, window := g.params(l.kappa)
	steps := &a.steps
	chebyOpts := linalg.ChebyOptions{
		Kappa:            l.kappa,
		Eps:              chebyEps,
		X0:               l.x0,
		StagnationWindow: window,
		// A plateau below the internal target is convergence at the FP
		// floor, not stagnation: finish the prescribed iterations so
		// round accounting matches the window-free solver exactly.
		StagnationTol: chebyEps,
		Scratch:       &s.cheby,
		// One matvec with L_G per iteration: one round, committed later.
		OnIteration: func() { *steps++ },
	}
	x, res, err := linalg.PreconCheby(s.lg, bSolve, l.rhs, chebyOpts)
	if err != nil && l.x0 != nil {
		// A near-exact seed can push the shifted right-hand side b - A x0
		// to the floating-point floor, where the iteration stagnates (or,
		// on the CG path, the inner CG fails). Warm starting is an
		// optimization, never a correctness dependency: retry this
		// attempt cold.
		l.x0 = nil
		chebyOpts.X0 = nil
		x, res, err = linalg.PreconCheby(s.lg, bSolve, l.rhs, chebyOpts)
	}
	// A stagnated attempt still hands back its plateau iterate — often a
	// solution that already certifies (the plateau is the floating-point
	// floor, below the target). Run the certificate before deciding.
	stagnated := errors.Is(err, linalg.ErrStagnated)
	if err != nil && !stagnated {
		a.chebyErr = err
		l.running = false
		l.pend = append(l.pend, a)
		return
	}
	a.iters = res.Iterations

	// Certificate: compute r = b - A x (one matvec round) and its
	// preconditioner norm (internal) plus one aggregation round. The
	// subtraction runs as -Ax + b, which rounds identically.
	r := s.res
	s.lg.Apply(r, x)
	linalg.Scale(r, -1)
	linalg.AXPY(r, 1, l.rhs)
	linalg.RemoveMean(r)
	rNorm, nerr := s.precondNorm(hSolve, r)
	if nerr != nil {
		a.normErr = nerr
		l.running = false
		l.pend = append(l.pend, a)
		return
	}
	g.decide(l, &a, rNorm, target, err)
	if a.outcome == accepted {
		a.x = x
	}
	l.pend = append(l.pend, a)
}

// attemptLanes runs the attempt of the running lanes run as lanes of one
// Chebyshev iteration on the exact factor. They share kappa: every lane
// took the same attempts so far.
func (g *group) attemptLanes(run []int) {
	s := g.s
	n := s.g.N()
	kappa := g.lanes[run[0]].kappa
	scale := math.Sqrt(kappa)
	f := s.hf
	bSolve := func(dst, r []float64, c *linalg.Calls) error {
		f.PseudoSolveLanesTo(dst, r, c)
		linalg.Vec(dst).Scale(1 / scale)
		return nil
	}
	target, chebyEps, window := g.params(kappa)
	var res [linalg.LaneWidth]linalg.LaneResult
	x, err := linalg.PreconChebyLanes(s.lg, bSolve, g.ls.b, linalg.ChebyOptions{
		Kappa:            kappa,
		Eps:              chebyEps,
		StagnationWindow: window,
		StagnationTol:    chebyEps,
		Scratch:          &g.ls.cheby,
	}, &res)
	if err != nil {
		for _, q := range run {
			l := &g.lanes[q]
			l.running = false
			l.pend = append(l.pend, attempt{kappa: kappa, chebyErr: err})
		}
		return
	}

	// The certificate, every lane at once.
	var cert linalg.Calls
	r, pn := g.ls.r, g.ls.p
	s.lg.ApplyLanes(r, x, &cert)
	linalg.ScaleLanes(r, -1, &cert)
	linalg.AXPYLanes(r, 1, g.ls.b, &cert)
	linalg.RemoveMeanLanes(r, &cert)
	f.PseudoSolveLanesTo(pn, r, &cert)
	rr := linalg.DotLanes(r, pn, &cert)
	for _, q := range run {
		l := &g.lanes[q]
		a := attempt{kappa: kappa, steps: res[q].Steps, iters: res[q].Iterations, calls: res[q].Calls}
		a.calls.Add(cert)
		g.decide(l, &a, sqrtNonNeg(rr[q]), target, res[q].Err)
		if a.outcome == accepted {
			a.x = linalg.NewVec(n)
			linalg.GetLane(a.x, x, q)
		}
		l.pend = append(l.pend, a)
	}
}

// decide sets the outcome of lane l's attempt a from its certificate norm
// and its Chebyshev error (nil, or a stagnation), and l's next kappa.
func (g *group) decide(l *lane, a *attempt, rNorm, target float64, chebyErr error) {
	s := g.s
	if rNorm <= target*l.bNorm {
		a.outcome, l.running = accepted, false
		return
	}
	// Rejected. Doubling kappa cannot cure a plateau (the inner solve, not
	// the condition bound, is the floor), and at the cap there is no kappa
	// left to double to; both climb the recovery ladder instead — unless
	// the caller pinned the historical failure modes.
	stagnated := chebyErr != nil
	if stagnated || l.kappa >= s.opts.MaxKappa {
		switch {
		case s.opts.NoEscalation:
			a.outcome, l.running = failed, false
			if stagnated {
				a.err = fmt.Errorf("lapsolver: %w", chebyErr)
			} else {
				a.err = fmt.Errorf("lapsolver: kappa cap %v reached with residual ratio %v (target %v)",
					s.opts.MaxKappa, rNorm/l.bNorm, target)
			}
		case s.hf == nil && !l.tightened:
			// Rung 1, CG path only: retry the same kappa at a tighter inner
			// tolerance (applied on commit, which for the one lane of a CG
			// group follows at once).
			a.outcome, l.tightened, l.x0 = tighten, true, nil
		default:
			// Rung 2: the exact dense solve, run on commit.
			a.outcome, l.running = dense, false
		}
		return
	}
	l.kappa *= 4
	// A rejected warm start may itself be the problem (stale potentials);
	// continue the escalation cold.
	l.x0 = nil
}

// advance commits every lane it can, in order, and makes the first lane
// still running the head; it returns the error that ends the call.
func (g *group) advance() error {
	for ; g.head < len(g.lanes); g.head++ {
		l := &g.lanes[g.head]
		if !l.begun {
			g.begin(l)
		}
		if !l.setupDone {
			l.setupDone = true
			if l.setupErr != nil {
				l.err = l.setupErr
				g.finish(l)
				return l.err
			}
			l.setup.Commit()
		}
		for len(l.pend) > 0 {
			if !l.opened {
				if err := g.open(l); err != nil {
					l.err = err
					g.finish(l)
					return err
				}
			}
			g.close(l, &l.pend[0])
			l.pend = l.pend[1:]
			if l.err != nil {
				g.finish(l)
				return l.err
			}
		}
		if l.running {
			return nil
		}
		g.finish(l)
	}
	return nil
}

// begin starts committing lane l: its stats measurement and its
// "lapsolve" span. Lane 0 of a group begins before any work, the others
// when every lane before them is done.
func (g *group) begin(l *lane) {
	s := g.s
	l.begun = true
	l.snap = rounds.Snap(s.opts.Ledger)
	l.spans = s.opts.Trace.SpanCount()
	l.sp = s.opts.Trace.Start("lapsolve")
}

// open runs lane l's budget check for its next attempt and opens the
// attempt's span.
func (g *group) open(l *lane) error {
	s := g.s
	if s.opts.Budget != nil { // skip formatting the phase name when unbounded
		if err := s.opts.Budget.Check(fmt.Sprintf("lapsolve-attempt-%d", l.st.Attempts+1)); err != nil {
			return fmt.Errorf("lapsolver: %w", err)
		}
	}
	l.st.Attempts++
	l.asp = s.opts.Trace.Startf("attempt-%d", l.st.Attempts)
	l.opened = true
	return nil
}

// close commits the rest of lane l's open attempt a: its ledger entries,
// kernel calls and outcome.
func (g *group) close(l *lane, a *attempt) {
	s := g.s
	l.opened = false
	if led := s.opts.Ledger; led != nil {
		for i := 0; i < a.steps; i++ {
			led.Add("lapsolve-cheby-iter", rounds.Measured, 1, "matvec with L_G, Cor 2.3")
		}
	}
	a.calls.Commit()
	if a.chebyErr != nil {
		l.asp.End()
		l.err = fmt.Errorf("lapsolver: %w", a.chebyErr)
		return
	}
	l.st.Iterations += a.iters
	if s.opts.Ledger != nil {
		s.opts.Ledger.Add("lapsolve-residual", rounds.Measured, 2, "residual matvec + aggregation")
	}
	if a.normErr != nil {
		l.err = a.normErr // the attempt span stays open until finish ends it
		return
	}
	l.asp.End()
	switch a.outcome {
	case accepted:
		l.st.KappaUsed = a.kappa
		g.accept(l, a.x)
	case failed:
		l.err = a.err
	case tighten:
		// The certificate norm is defined by the inner solve, so the
		// right-hand side's norm is recomputed under the tighter one. An
		// exact factored solve has nothing to tighten: re-running it cannot
		// change the certificate.
		l.st.Escalations++
		esp := s.opts.Trace.Start("escalate-tighten")
		l.tol /= 100
		l.hSolve = s.hSolver(l.tol)
		var err error
		l.bNorm, err = s.precondNorm(l.hSolve, l.rhs)
		esp.End()
		if err != nil {
			l.err = err
		}
	case dense:
		l.st.Escalations++
		l.st.DenseFallback = true
		l.st.KappaUsed = a.kappa
		xd, err := s.denseFallback(l.rhs)
		if err != nil {
			l.err = err
			return
		}
		g.accept(l, xd)
	}
}

// accept takes x as lane l's answer, keeping it as the next solve's seed
// under WarmStart.
func (g *group) accept(l *lane, x linalg.Vec) {
	s := g.s
	l.x = x
	if s.opts.WarmStart {
		s.warmKappa = l.st.KappaUsed
		s.warmX = x.Clone()
		s.warmB = l.rhs.Clone()
	}
}

// finish ends lane l's commit: its span, its Stats and metrics, and its
// answer scaled back to b's magnitude.
func (g *group) finish(l *lane) {
	s := g.s
	l.sp.End()
	st := l.st
	st.Stats = l.snap.Stats()
	st.Spans = s.opts.Trace.SpanCount() - l.spans
	s.mi.record(st)
	g.stats = append(g.stats, st)
	if l.err == nil {
		scaleExp(l.x, l.exp)
		g.xs = append(g.xs, l.x)
	}
}

// normalize returns b·2^-e and e, the binary exponent (math.Frexp) of b's
// largest entry magnitude, which then lies in [1/2, 1). Outside roughly
// 2^±512 the certificate's squared norms over- or underflow; a solve is
// linear in b and each of its steps commutes with scaling by a power of
// two, so solving b·2^-e and scaling the answer by 2^e keeps every bit of
// an input that never over- or underflowed, and makes the iteration count
// and rounds independent of b's scale.
func normalize(b linalg.Vec) (linalg.Vec, int) {
	var m float64
	for _, v := range b {
		m = max(m, math.Abs(v))
	}
	_, e := math.Frexp(m)
	x := b.Clone()
	scaleExp(x, -e)
	return x, e
}

// scaleExp sets x = x·2^e, rounding each entry once.
func scaleExp(x linalg.Vec, e int) {
	switch {
	case e == 0:
	case e >= -1022 && e <= 1023:
		x.Scale(math.Ldexp(1, e)) // a normal power of two: one rounding
	default:
		for i, v := range x {
			x[i] = math.Ldexp(v, e)
		}
	}
}

// sqrtNonNeg is precondNorm's square root of a quadratic form that
// rounding may have pushed below zero.
func sqrtNonNeg(q float64) float64 {
	if q < 0 {
		q = 0
	}
	return math.Sqrt(q)
}
