// Package lapsolver implements the deterministic congested-clique Laplacian
// solver of Theorem 1.1: build a deterministic spectral sparsifier H of G
// (Theorem 3.3, package sparsify), make it known to every node, and run the
// preconditioned Chebyshev iteration of Theorem 2.2 (Corollary 2.3). Each
// Chebyshev iteration consists of one matvec with L_G — one round, because
// node v holds row v and the iterate entry x_v — plus a solve with the
// globally-known sparsifier and a constant number of vector operations,
// both internal.
//
// The sparsifier solve is exact, as the model assumes: up to factorMaxN
// vertices the solver factors L_H + J/n once per sparsifier build
// (linalg.LaplacianCholesky) and every preconditioner solve is a pair of
// triangular sweeps. Only above that memory cap, or if factoring fails,
// does it run a Jacobi-preconditioned CG to Options.InternalTol instead.
//
// The paper knows the approximation factor alpha analytically
// (log^{O(r^2)} n); our substituted sparsifier's alpha is not known a
// priori, so the solver doubles a guess kappa = alpha^2 until the
// preconditioner-norm residual certifies the target error. Each rejected
// guess costs its iterations, which the ledger records; the doubling adds
// at most a constant factor over knowing alpha exactly — the standard
// trick, and the experiments (E8) also report measured alpha directly.
package lapsolver

import (
	"errors"
	"fmt"
	"math"

	"lapcc/internal/cc"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/sparsify"
	"lapcc/internal/trace"
)

// ErrDisconnected reports an input graph that is not connected; Laplacian
// systems are solved per connected component, and this package requires the
// caller to pass one component.
var ErrDisconnected = errors.New("lapsolver: graph must be connected")

// ErrBadRHS reports a right-hand side of the wrong length.
var ErrBadRHS = errors.New("lapsolver: right-hand side has wrong length")

// Options configures NewSolver.
type Options struct {
	// Sparsify configures the sparsifier chain (zero value = defaults).
	Sparsify sparsify.Options
	// Randomized switches to the randomized effective-resistance sampling
	// sparsifier — the paper's closing remark: a simpler randomized solver
	// turns the n^{o(1)} factor into polylog n. Runs are reproducible per
	// RandomSeed. The solver itself stays the same deterministic
	// preconditioned Chebyshev iteration.
	Randomized bool
	// RandomSeed drives the randomized sparsifier.
	RandomSeed int64
	// KappaHint, if positive, is the initial relative-condition guess
	// (kappa = alpha^2). Default 4.
	KappaHint float64
	// MaxKappa caps the adaptive doubling (default 1e8).
	MaxKappa float64
	// InternalTol is the tolerance of the internal CG solves of the
	// globally-known sparsifier (default 1e-13). It applies only on the CG
	// path — graphs above factorMaxN vertices, or a sparsifier that failed
	// to factor; below the cap the sparsifier solve is exact. These solves
	// cost zero rounds in the model.
	InternalTol float64
	// WarmStart keeps solver state across Solve calls: the previously
	// accepted kappa seeds the next attempt schedule (skipping re-rejected
	// doubling attempts) and the previous solve's potentials seed the
	// Chebyshev iteration (ChebyOptions.X0, scaled by the projection of the
	// new right-hand side onto the old one). Results still pass the same
	// residual certificate; only wall clock changes. Intended for session
	// use (many solves / reweights against one topology).
	WarmStart bool
	// Chain tunes the sparsifier session reuse policy (α-drift bound,
	// envelope certificate) used by Reweight; its Sparsify field is ignored
	// in favor of Options.Sparsify. Zero value = defaults.
	Chain sparsify.ChainOptions
	// Ledger, if non-nil, receives round costs.
	Ledger *rounds.Ledger
	// Faults, if non-nil, subjects every network primitive of the
	// sparsifier chain to the given fault plan, with delivery restored by
	// the reliable retransmission layer (propagated to Sparsify.Faults
	// when that field is unset). Results are bit-identical to a fault-free
	// run; only the round cost grows.
	Faults *cc.FaultPlan
	// Transport, if non-nil, physically carries every network primitive of
	// the sparsifier chain through the given delivery backend (propagated
	// to Sparsify.Transport when that field is unset; see cc.Transport).
	// Results are bit-identical to the in-process path.
	Transport cc.Transport
	// Trace, if non-nil, receives hierarchical span and cost events for
	// this call (see internal/trace); a nil tracer records nothing and
	// costs nothing.
	Trace *trace.Tracer
	// Budget, if non-nil, bounds each Solve: it is checked at every kappa
	// attempt, and exhaustion aborts with an error unwrapping to
	// rounds.ErrBudgetExceeded carrying the partial stats. A nil budget
	// never limits anything.
	Budget *rounds.Budget
	// Metrics, if non-nil, receives live phase counters (solves, Chebyshev
	// iterations, kappa attempts, escalations, dense fallbacks) and a
	// mirror of the ledger's cost stream; propagated to Sparsify.Metrics
	// when that field is unset. A nil registry records nothing and costs
	// nothing.
	Metrics *metrics.Registry
	// Workers sets the worker count for the solver's numerical kernels
	// (Laplacian matvecs, Chebyshev vector ops, internal CG) and is
	// propagated to Sparsify.Workers when that field is unset
	// (0 = GOMAXPROCS, 1 = sequential — today's exact code path). Results
	// are bit-identical at any worker count; see linalg's parallel runtime.
	Workers int
	// NoEscalation disables the guarded-recovery machinery — both the
	// Chebyshev stagnation window (so every attempt runs its full
	// prescribed iteration count) and the recovery ladder (stagnation →
	// tightened internal tolerance on the CG path → exact dense fallback) —
	// restoring the historical run-to-the-bound, fail-with-error behavior.
	// Intended for tests and experiments that pin the theory's round
	// accounting or the failure modes themselves.
	NoEscalation bool
}

func (o *Options) defaults() {
	if o.KappaHint == 0 {
		o.KappaHint = 4
	}
	if o.MaxKappa == 0 {
		o.MaxKappa = 1e8
	}
	if o.InternalTol == 0 {
		o.InternalTol = 1e-13
	}
	if o.Ledger != nil && o.Sparsify.Ledger == nil {
		o.Sparsify.Ledger = o.Ledger
	}
	if o.Trace != nil && o.Sparsify.Trace == nil {
		o.Sparsify.Trace = o.Trace
	}
	o.Budget.BindIfUnbound(o.Ledger)
	if o.Faults != nil && o.Sparsify.Faults == nil {
		o.Sparsify.Faults = o.Faults
	}
	if o.Transport != nil && o.Sparsify.Transport == nil {
		o.Sparsify.Transport = o.Transport
	}
	if o.Metrics != nil && o.Sparsify.Metrics == nil {
		o.Sparsify.Metrics = o.Metrics
	}
	if o.Sparsify.Workers == 0 {
		o.Sparsify.Workers = o.Workers
	}
}

// Solver solves systems L_G x = b to relative precision eps in the L_G
// norm. One Solver instance amortizes its sparsifier across many solves,
// and — through Reweight — across many weightings of one topology: the
// flow IPMs build one Solver per support graph and reweight it every
// iteration instead of rebuilding (see sparsify.Chain for the reuse
// policy). The solver works on a private copy of the input graph, so
// Reweight never mutates the caller's graph. Solves reuse the solver's
// scratch, so a Solver must not be used by concurrent goroutines.
type Solver struct {
	g  *graph.Graph // private working copy (reweighted in place)
	lg *linalg.Laplacian
	h  *graph.Graph
	// The preconditioner side holds exactly one of: hf, the exact factor of
	// L_H + J/n (n <= factorMaxN), or lh, the sparsifier Laplacian the CG
	// path solves with.
	hf    *linalg.CholeskyFactor
	lh    *linalg.Laplacian
	opts  Options
	pool  *linalg.Pool    // nil = sequential kernels
	chain *sparsify.Chain // nil on the randomized path

	// Solve scratch, reused by every Solve: the Chebyshev work vectors
	// (among them z, the preconditioner output), the certificate residual,
	// and the precondNorm output. The three are distinct buffers.
	cheby linalg.ChebyScratch
	res   linalg.Vec
	pn    linalg.Vec

	// Warm-start state (only written when opts.WarmStart is set).
	warmX     linalg.Vec // potentials of the last accepted solve
	warmB     linalg.Vec // right-hand side of the last accepted solve
	warmKappa float64    // kappa accepted by the last solve (0 = none)

	mi *lapMetrics // pre-resolved instruments (nil with metrics disabled)
}

// lapMetrics is the solver's pre-resolved instrument set; Solve records
// into it without touching the registry (it is called once per IPM
// iteration in the flow solvers).
type lapMetrics struct {
	solves         *metrics.Counter
	iterations     *metrics.Counter
	attempts       *metrics.Counter
	escalations    *metrics.Counter
	denseFallbacks *metrics.Counter
}

func newLapMetrics(reg *metrics.Registry) *lapMetrics {
	if reg == nil {
		return nil
	}
	return &lapMetrics{
		solves:         reg.Counter("lapcc_lapsolver_solves_total", "Laplacian Solve calls completed."),
		iterations:     reg.Counter("lapcc_lapsolver_cheby_iterations_total", "Preconditioned Chebyshev iterations across all solves."),
		attempts:       reg.Counter("lapcc_lapsolver_kappa_attempts_total", "Kappa guesses tried across all solves."),
		escalations:    reg.Counter("lapcc_lapsolver_escalations_total", "Guarded-recovery escalations (tolerance tightenings and dense fallbacks)."),
		denseFallbacks: reg.Counter("lapcc_lapsolver_dense_fallbacks_total", "Solves rescued by the exact dense fallback."),
	}
}

// record mirrors one Solve call's stats; nil-safe.
func (m *lapMetrics) record(stats Stats) {
	if m == nil {
		return
	}
	m.solves.Inc()
	m.iterations.Add(int64(stats.Iterations))
	m.attempts.Add(int64(stats.Attempts))
	m.escalations.Add(int64(stats.Escalations))
	if stats.DenseFallback {
		m.denseFallbacks.Inc()
	}
}

// Stats reports one Solve call.
type Stats struct {
	// Stats carries the shared round accounting of the call.
	rounds.Stats
	// Iterations is the total number of Chebyshev iterations across all
	// kappa attempts; each iteration costs one measured round.
	Iterations int
	// KappaUsed is the accepted relative-condition bound.
	KappaUsed float64
	// Attempts is the number of kappa guesses tried.
	Attempts int
	// Escalations counts guarded-recovery steps taken: each tightening of
	// the internal tolerance after a stagnated attempt is one escalation,
	// and the dense fallback is one more.
	Escalations int
	// DenseFallback reports that the iterative ladder was exhausted and the
	// result came from the exact dense solve (charged at the trivial-gather
	// round cost).
	DenseFallback bool
}

// NewSolver builds the sparsifier for g and prepares internal solvers.
// Construction costs the Theorem 3.3 rounds (charged/measured through the
// ledger inside sparsify). The solver clones g, so later Reweight calls
// leave the caller's graph untouched; the clone preserves edge order, so
// results are bit-identical to building on g directly.
func NewSolver(g *graph.Graph, opts Options) (*Solver, error) {
	opts.defaults()
	if !g.IsConnected() {
		return nil, ErrDisconnected
	}
	opts.Trace.Attach(opts.Ledger)
	opts.Metrics.MirrorLedger(opts.Ledger)
	sp := opts.Trace.Start("lapsolve-build")
	defer sp.End()
	gw := g.Clone()
	s := &Solver{
		g: gw, lg: linalg.NewLaplacian(gw), opts: opts, mi: newLapMetrics(opts.Metrics),
		res: linalg.NewVec(gw.N()), pn: linalg.NewVec(gw.N()),
	}
	s.pool = linalg.SharedPool(opts.Workers)
	s.lg.SetPool(s.pool)
	if opts.Randomized {
		res, err := sparsify.RandomizedSparsify(gw, sparsify.RandomOptions{
			Seed:    opts.RandomSeed,
			Ledger:  opts.Ledger,
			Trace:   opts.Trace,
			Metrics: opts.Metrics,
		})
		if err != nil {
			return nil, fmt.Errorf("lapsolver: %w", err)
		}
		s.setSparsifier(res.H)
		return s, nil
	}
	chainOpts := opts.Chain
	chainOpts.Sparsify = opts.Sparsify
	chain, err := sparsify.NewChain(gw, chainOpts)
	if err != nil {
		return nil, fmt.Errorf("lapsolver: %w", err)
	}
	s.chain = chain
	s.setSparsifier(chain.H())
	return s, nil
}

// factorMaxN is the largest vertex count whose sparsifier the solver
// factors: the packed factor of L_H + J/n holds n(n+1)/2 float64s, 4 MiB
// at n = 1024. Above it the preconditioner solve is CG.
const factorMaxN = 1024

// setSparsifier (re)wires the preconditioner side of the solver to h. At
// or below factorMaxN it factors L_H + J/n once, sequentially, so every
// later preconditioner solve — each Chebyshev iteration, the certificate,
// every kappa attempt, RHS and structure-keeping Reweight — is exact and
// bit-identical at any worker count. Above the cap, or if factoring fails,
// it keeps L_H for the CG path.
func (s *Solver) setSparsifier(h *graph.Graph) {
	s.h = h
	s.hf, s.lh = nil, nil
	if h.N() <= factorMaxN {
		if f, err := linalg.LaplacianCholesky(h); err == nil {
			s.hf = f
			return
		}
	}
	s.lh = linalg.NewLaplacian(h)
	s.lh.SetPool(s.pool)
}

// hSolver returns the preconditioner solve dst = L_H^+ r: the exact
// factored solve, or CG on L_H to the given tolerance.
func (s *Solver) hSolver(tol float64) func(dst, r linalg.Vec) error {
	if f := s.hf; f != nil {
		return func(dst, r linalg.Vec) error {
			f.PseudoSolveTo(dst, r)
			return nil
		}
	}
	cg := linalg.LaplacianCGSolver(s.lh, tol)
	return func(dst, r linalg.Vec) error {
		y, err := cg(r)
		if err != nil {
			return err
		}
		copy(dst, y)
		return nil
	}
}

// Reweight points the solver at new edge weights for its (fixed) topology:
// w is indexed by edge id of the graph NewSolver was given. The sparsifier
// chain decides between exact reuse, drift-certified reuse, and a full
// rebuild (sparsify.Chain); the ledger sees the same charged rounds a fresh
// build with the recorded level structure would add, so reuse changes only
// wall clock and allocations.
func (s *Solver) Reweight(w []float64) error {
	if len(w) != s.g.M() {
		return fmt.Errorf("lapsolver: reweight with %d weights for %d edges", len(w), s.g.M())
	}
	if s.chain != nil {
		reused, err := s.chain.Reweight(w)
		if err != nil {
			return fmt.Errorf("lapsolver: %w", err)
		}
		s.lg.Refresh()
		if !reused {
			// Fresh structure: rewire the preconditioner and drop the warm
			// kappa (it calibrated the old sparsifier); the warm potentials
			// stay — they approximate the solution, not the structure.
			s.setSparsifier(s.chain.H())
			s.warmKappa = 0
		}
		return nil
	}
	// Randomized path: no structural session; reweight in place and rebuild
	// with the same seed (reproducibility contract unchanged).
	for i := range w {
		if err := s.g.SetWeight(i, w[i]); err != nil {
			return fmt.Errorf("lapsolver: reweight: %w", err)
		}
	}
	s.lg.Refresh()
	res, err := sparsify.RandomizedSparsify(s.g, sparsify.RandomOptions{
		Seed:    s.opts.RandomSeed,
		Ledger:  s.opts.Ledger,
		Trace:   s.opts.Trace,
		Metrics: s.opts.Metrics,
	})
	if err != nil {
		return fmt.Errorf("lapsolver: %w", err)
	}
	s.setSparsifier(res.H)
	s.warmKappa = 0
	return nil
}

// SetBudget replaces the budget consulted at solve-attempt boundaries,
// binding it to the solver's ledger so its round limit meters from the
// current totals. A nil budget removes the limit. The serving layer uses
// this to apply per-request admission budgets to pooled solvers; the
// sparsifier chain's rebuild budget is set separately (sparsify.Chain).
func (s *Solver) SetBudget(b *rounds.Budget) {
	b.Bind(s.opts.Ledger)
	s.opts.Budget = b
}

// ChainStats returns the sparsifier session's reuse counters (zero value on
// the randomized path, which has no structural session).
func (s *Solver) ChainStats() sparsify.ChainStats {
	if s.chain == nil {
		return sparsify.ChainStats{}
	}
	return s.chain.Stats()
}

// Sparsifier returns the sparsifier graph H (globally known to all nodes).
func (s *Solver) Sparsifier() *graph.Graph { return s.h }

// Graph returns the solver's working graph (its private copy, carrying the
// current weights). The caller must not mutate it; use Reweight.
func (s *Solver) Graph() *graph.Graph { return s.g }

// Laplacian returns the input graph's Laplacian operator.
func (s *Solver) Laplacian() *linalg.Laplacian { return s.lg }

// Solve returns x with ||x - L_G^+ b||_{L_G} <= eps * ||L_G^+ b||_{L_G}.
// b is projected onto the solvable subspace (mean removed); eps must lie in
// (0, 1/2].
func (s *Solver) Solve(b linalg.Vec, eps float64) (linalg.Vec, Stats, error) {
	snap := rounds.Snap(s.opts.Ledger)
	spansBefore := s.opts.Trace.SpanCount()
	x, stats, err := s.solve(b, eps)
	stats.Stats = snap.Stats()
	stats.Spans = s.opts.Trace.SpanCount() - spansBefore
	s.mi.record(stats)
	return x, stats, err
}

func (s *Solver) solve(b linalg.Vec, eps float64) (linalg.Vec, Stats, error) {
	sp := s.opts.Trace.Start("lapsolve")
	defer sp.End()
	if len(b) != s.g.N() {
		return nil, Stats{}, fmt.Errorf("%w: %d for n=%d", ErrBadRHS, len(b), s.g.N())
	}
	if eps <= 0 || eps > 0.5 {
		return nil, Stats{}, fmt.Errorf("lapsolver: eps %v outside (0, 1/2]", eps)
	}
	rhs := b.Clone()
	s.pool.RemoveMean(rhs)
	var stats Stats
	if s.pool.Norm2(rhs) == 0 {
		return linalg.NewVec(s.g.N()), stats, nil
	}

	// The preconditioner solve with L_H. On the CG path the tighten rung
	// below swaps in a tighter one for the rest of this call only.
	tol := s.opts.InternalTol
	hSolve := s.hSolver(tol)

	// Residual acceptance in the preconditioner norm: with
	// (1/a) L_H <= L_G <= a L_H and a^2 <= kappa,
	//   ||x - x*||_A / ||x*||_A <= a * ||r||_{B+} / ||b||_{B+},
	// so accepting at ratio <= eps/sqrt(kappa) certifies the target.
	bNorm, err := s.precondNorm(hSolve, rhs)
	if err != nil {
		return nil, stats, err
	}

	kappa := s.opts.KappaHint
	var x0 linalg.Vec
	if s.opts.WarmStart {
		if s.warmKappa > 0 {
			// Start at the previously accepted kappa: skips the doubling
			// attempts the last solve already paid for.
			kappa = s.warmKappa
		}
		if s.warmX != nil && s.warmB != nil {
			// Seed Chebyshev with the previous potentials, scaled by the
			// projection of the new rhs onto the old one (IPM right-hand
			// sides keep their direction and shrink in magnitude).
			den := s.warmB.Dot(s.warmB)
			if den > 0 {
				c := rhs.Dot(s.warmB) / den
				if !math.IsNaN(c) && !math.IsInf(c, 0) {
					x0 = s.warmX.Clone()
					x0.Scale(c)
				}
			}
		}
	}
	tightened := false
	for {
		if s.opts.Budget != nil { // skip formatting the phase name when unbounded
			if err := s.opts.Budget.Check(fmt.Sprintf("lapsolve-attempt-%d", stats.Attempts+1)); err != nil {
				return nil, stats, fmt.Errorf("lapsolver: %w", err)
			}
		}
		stats.Attempts++
		asp := s.opts.Trace.Startf("attempt-%d", stats.Attempts)
		scale := math.Sqrt(kappa)
		bSolve := func(dst, r linalg.Vec) error {
			if err := hSolve(dst, r); err != nil {
				return err
			}
			dst.Scale(1 / scale) // (sqrt(kappa) L_H)^+
			return nil
		}
		// Run at the tighter internal target eps/sqrt(kappa) so the
		// certificate below can fire.
		target := eps / scale
		if target < 1e-14 {
			target = 1e-14
		}
		chebyEps := target
		if chebyEps > 0.5 {
			chebyEps = 0.5
		}
		window := linalg.StagnationWindowFor(kappa)
		if s.opts.NoEscalation {
			window = 0
		}
		chebyOpts := linalg.ChebyOptions{
			Kappa:            kappa,
			Eps:              chebyEps,
			X0:               x0,
			StagnationWindow: window,
			// A plateau below the internal target is convergence at the FP
			// floor, not stagnation: finish the prescribed iterations so
			// round accounting matches the window-free solver exactly.
			StagnationTol: chebyEps,
			Pool:          s.pool,
			Scratch:       &s.cheby,
			OnIteration: func() {
				if s.opts.Ledger != nil {
					// One matvec with L_G per iteration: one round.
					s.opts.Ledger.Add("lapsolve-cheby-iter", rounds.Measured, 1, "matvec with L_G, Cor 2.3")
				}
			},
		}
		x, res, err := linalg.PreconCheby(s.lg, bSolve, rhs, chebyOpts)
		if err != nil && x0 != nil {
			// A near-exact seed can push the shifted right-hand side b - A x0
			// to the floating-point floor, where the iteration stagnates (or,
			// on the CG path, the inner CG fails). Warm starting is an
			// optimization, never a correctness dependency: retry this
			// attempt cold.
			x0 = nil
			chebyOpts.X0 = nil
			x, res, err = linalg.PreconCheby(s.lg, bSolve, rhs, chebyOpts)
		}
		// A stagnated attempt still hands back its plateau iterate — often a
		// solution that already certifies (the plateau is the floating-point
		// floor, below the target). Run the certificate before deciding.
		stagnated := errors.Is(err, linalg.ErrStagnated)
		if err != nil && !stagnated {
			asp.End()
			return nil, stats, fmt.Errorf("lapsolver: %w", err)
		}
		stats.Iterations += res.Iterations

		// Certificate: compute r = b - A x (one matvec round) and its
		// preconditioner norm (internal) plus one aggregation round. The
		// subtraction runs as -Ax + b, which rounds identically.
		r := s.res
		s.lg.Apply(r, x)
		s.pool.Scale(r, -1)
		s.pool.AXPY(r, 1, rhs)
		s.pool.RemoveMean(r)
		if s.opts.Ledger != nil {
			s.opts.Ledger.Add("lapsolve-residual", rounds.Measured, 2, "residual matvec + aggregation")
		}
		rNorm, err := s.precondNorm(hSolve, r)
		if err != nil {
			return nil, stats, err
		}
		asp.End()
		if rNorm <= target*bNorm {
			stats.KappaUsed = kappa
			if s.opts.WarmStart {
				s.warmKappa = kappa
				s.warmX = x.Clone()
				s.warmB = rhs.Clone()
			}
			return x, stats, nil
		}
		// Rejected. Doubling kappa cannot cure a plateau (the inner solve,
		// not the condition bound, is the floor), and at the cap there is no
		// kappa left to double to; both climb the recovery ladder instead —
		// unless the caller pinned the historical failure modes.
		if stagnated || kappa >= s.opts.MaxKappa {
			if s.opts.NoEscalation {
				if stagnated {
					return nil, stats, fmt.Errorf("lapsolver: %w", err)
				}
				return nil, stats, fmt.Errorf("lapsolver: kappa cap %v reached with residual ratio %v (target %v)",
					s.opts.MaxKappa, rNorm/bNorm, target)
			}
			if s.hf == nil && !tightened {
				// Rung 1, CG path only: retry the same kappa with a 100x
				// tighter internal sparsifier solve, for the rest of this
				// call. The certificate norm is defined by that solve, so
				// recompute the right-hand side's norm under it. An exact
				// factored solve has nothing to tighten: re-running it
				// cannot change the certificate.
				tightened = true
				stats.Escalations++
				esp := s.opts.Trace.Start("escalate-tighten")
				tol /= 100
				hSolve = s.hSolver(tol)
				bNorm, err = s.precondNorm(hSolve, rhs)
				esp.End()
				if err != nil {
					return nil, stats, err
				}
				x0 = nil
				continue
			}
			// Rung 2: exact dense solve, charged at the trivial-gather cost.
			stats.Escalations++
			stats.DenseFallback = true
			stats.KappaUsed = kappa
			xd, derr := s.denseFallback(rhs)
			if derr != nil {
				return nil, stats, derr
			}
			if s.opts.WarmStart {
				s.warmKappa = kappa
				s.warmX = xd.Clone()
				s.warmB = rhs.Clone()
			}
			return xd, stats, nil
		}
		kappa *= 4
		// A rejected warm start may itself be the problem (stale
		// potentials); continue the escalation cold.
		x0 = nil
	}
}

// denseFallback is the last rung of the guarded-recovery ladder: make the
// whole graph globally known — charged at the trivial deterministic gather
// cost of section 1.1 — and solve the system exactly with the dense
// pseudoinverse path. It cannot stagnate and needs no kappa.
func (s *Solver) denseFallback(rhs linalg.Vec) (linalg.Vec, error) {
	sp := s.opts.Trace.Start("escalate-dense")
	defer sp.End()
	if s.opts.Ledger != nil {
		s.opts.Ledger.Add("lapsolve-dense-gather", rounds.Charged,
			rounds.TrivialGatherRounds(s.g.N(), s.g.M(), int64(math.Ceil(s.g.MaxWeight()))),
			"trivial gather, section 1.1; exact dense fallback")
	}
	f, err := linalg.LaplacianCholesky(s.g)
	if err != nil {
		return nil, fmt.Errorf("lapsolver: dense fallback: %w", err)
	}
	x := linalg.NewVec(len(rhs))
	f.PseudoSolveTo(x, rhs)
	return x, nil
}

// precondNorm returns sqrt(v^T L_H^+ v), the preconditioner seminorm used
// by the acceptance certificate, with L_H^+ applied by hSolve into the
// solver's precondNorm buffer (v must not be that buffer). Internal
// computation: L_H is globally known.
func (s *Solver) precondNorm(hSolve func(dst, r linalg.Vec) error, v linalg.Vec) (float64, error) {
	if err := hSolve(s.pn, v); err != nil {
		return 0, fmt.Errorf("lapsolver: preconditioner norm: %w", err)
	}
	q := s.pool.Dot(v, s.pn)
	if q < 0 {
		q = 0
	}
	return math.Sqrt(q), nil
}

// PredictedRounds returns the Theorem 1.1 round bound shape
// n^{o(1)} log(U/eps) instantiated with the measured sparsifier: the
// Chebyshev iteration count for the given kappa and eps. Exposed for the
// experiment harness.
func PredictedRounds(kappa, eps float64) int {
	return linalg.ChebyIterationBound(kappa, eps)
}
