// Package lapsolver implements the deterministic congested-clique Laplacian
// solver of Theorem 1.1: build a deterministic spectral sparsifier H of G
// (Theorem 3.3, package sparsify), make it known to every node, and run the
// preconditioned Chebyshev iteration of Theorem 2.2 (Corollary 2.3). Each
// Chebyshev iteration consists of one matvec with L_G — one round, because
// node v holds row v and the iterate entry x_v — plus a solve with the
// globally-known sparsifier and a constant number of vector operations,
// both internal.
//
// The sparsifier solve is exact, as the model assumes: up to
// linalg.FactorMaxN vertices the solver factors L_H + J/n once per
// sparsifier build (linalg.LaplacianCholesky) and every preconditioner
// solve is a pair of triangular sweeps. Only above that memory cap, or if factoring fails,
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

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
	"lapcc/internal/sparsify"
)

// ErrDisconnected reports an input graph that is not connected; Laplacian
// systems are solved per connected component, and this package requires the
// caller to pass one component.
var ErrDisconnected = errors.New("lapsolver: graph must be connected")

// ErrBadRHS reports a right-hand side of the wrong length.
var ErrBadRHS = errors.New("lapsolver: right-hand side has wrong length")

// Options configures NewSolver.
type Options struct {
	// Env is the run: its budget is checked at every kappa attempt and at
	// every level of a sparsifier build or rebuild, and its transport and
	// fault plan carry the sparsifier chain's network primitives.
	runenv.Env
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
	// path — graphs above linalg.FactorMaxN vertices, or a sparsifier that
	// failed to factor; below the cap the sparsifier solve is exact. These
	// solves cost zero rounds in the model.
	InternalTol float64
	// WarmStart keeps solver state across Solve calls: the previously
	// accepted kappa seeds the next attempt schedule (skipping re-rejected
	// doubling attempts) and the previous solve's potentials seed the
	// Chebyshev iteration (ChebyOptions.X0, scaled by the projection of the
	// new right-hand side onto the old one). Results still pass the same
	// residual certificate; only wall clock changes. Intended for session
	// use (many solves / reweights against one topology).
	WarmStart bool
	// ExactReuse restricts Reweight's sparsifier reuse to an unchanged
	// weight-class partition, where reuse is bit-identical to a rebuild
	// (sparsify.ChainOptions.ExactOnly).
	ExactReuse bool
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
	// L_H + J/n (n <= linalg.FactorMaxN), or lh, the sparsifier Laplacian
	// the CG path solves with.
	hf    *linalg.CholeskyFactor
	lh    *linalg.Laplacian
	opts  Options
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
	opts.Bind()
	sp := opts.Trace.Start("lapsolve-build")
	defer sp.End()
	gw := g.Clone()
	s := &Solver{
		g: gw, lg: linalg.NewLaplacian(gw), opts: opts, mi: newLapMetrics(opts.Metrics),
		res: linalg.NewVec(gw.N()), pn: linalg.NewVec(gw.N()),
	}
	if opts.Randomized {
		res, err := sparsify.RandomizedSparsify(gw, sparsify.RandomOptions{Seed: opts.RandomSeed, Env: opts.Env})
		if err != nil {
			return nil, fmt.Errorf("lapsolver: %w", err)
		}
		s.setSparsifier(res.H)
		return s, nil
	}
	chain, err := sparsify.NewChain(gw, sparsify.ChainOptions{Sparsify: opts.Env, ExactOnly: opts.ExactReuse})
	if err != nil {
		return nil, fmt.Errorf("lapsolver: %w", err)
	}
	s.chain = chain
	s.setSparsifier(chain.H())
	return s, nil
}

// setSparsifier (re)wires the preconditioner side of the solver to h. At
// or below linalg.FactorMaxN it factors L_H + J/n once, so every later
// preconditioner solve — each Chebyshev iteration, the certificate, every
// kappa attempt, RHS and structure-keeping Reweight — is exact. Above the
// cap, or if factoring fails, it keeps L_H for the CG path.
func (s *Solver) setSparsifier(h *graph.Graph) {
	s.h = h
	s.hf, s.lh = nil, nil
	if h.N() <= linalg.FactorMaxN {
		if f, err := linalg.LaplacianCholesky(h); err == nil {
			s.hf = f
			return
		}
	}
	s.lh = linalg.NewLaplacian(h)
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
	res, err := sparsify.RandomizedSparsify(s.g, sparsify.RandomOptions{Seed: s.opts.RandomSeed, Env: s.opts.Env})
	if err != nil {
		return fmt.Errorf("lapsolver: %w", err)
	}
	s.setSparsifier(res.H)
	s.warmKappa = 0
	return nil
}

// SetBudget replaces the budget consulted at solve-attempt boundaries and
// by the sparsifier chain's rebuilds, binding it to the solver's ledger so
// its round limit meters from the current totals. A nil budget removes the
// limit. The serving layer uses this to apply per-request admission budgets
// to pooled solvers.
func (s *Solver) SetBudget(b *rounds.Budget) {
	b.Bind(s.opts.Ledger)
	s.opts.Budget = b
	if s.chain != nil {
		s.chain.SetBudget(b)
	}
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
// (0, 1/2]. It is SolveLanes on one right-hand side.
func (s *Solver) Solve(b linalg.Vec, eps float64) (linalg.Vec, Stats, error) {
	bs := [1]linalg.Vec{b}
	xs, stats, err := s.SolveLanes(bs[:], eps)
	if err != nil {
		return nil, stats[0], err
	}
	return xs[0], stats[0], nil
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
	return sqrtNonNeg(v.Dot(s.pn)), nil
}

// PredictedRounds returns the Theorem 1.1 round bound shape
// n^{o(1)} log(U/eps) instantiated with the measured sparsifier: the
// Chebyshev iteration count for the given kappa and eps. Exposed for the
// experiment harness.
func PredictedRounds(kappa, eps float64) int {
	return linalg.ChebyIterationBound(kappa, eps)
}
