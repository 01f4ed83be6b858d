package electrical

import (
	"fmt"
	"math"

	"lapcc/internal/graph"
	"lapcc/internal/lapsolver"
	"lapcc/internal/linalg"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/trace"
)

// cgStagnationWindow is the plateau-detection window for the session's
// internal CG solves: 1% improvement per 100 iterations is far below any
// healthy Jacobi-CG convergence rate, so the window only fires on runs that
// would otherwise burn to MaxIter and fail anyway.
const cgStagnationWindow = 100

// Session is the build-once/solve-many form of an electrical network over a
// *fixed topology*: construction captures the structure (graph, Laplacian,
// preconditioner, and — in Full mode — the whole Theorem 1.1 sparsifier
// chain) exactly once, and Reweight swaps the conductances in place without
// a single allocation on the internal path. Both interior point methods
// (Theorems 1.2 and 1.3) hold their support topology fixed for the entire
// run and only change weights per iteration, which is precisely this shape.
//
// Two modes:
//
//   - internal (default): the support is solved with Jacobi-preconditioned
//     CG as internal computation — zero measured rounds — and the *caller*
//     charges the Theorem 1.1 round formula per solve, exactly as the
//     maxflow and mcmf IPMs do. A cold-started session solve is
//     bit-identical to building the support graph and Laplacian from
//     scratch: same edge order, same degree summation order, same
//     deterministic CG.
//   - Full: a lapsolver.Solver (sparsifier chain + preconditioned
//     Chebyshev) is built once and reweighted through its sparsify.Chain,
//     with measured/charged rounds flowing to the configured ledger.
type Session struct {
	g       *graph.Graph
	lap     *linalg.Laplacian
	precond linalg.Vec
	solver  *lapsolver.Solver // non-nil in Full mode
	opts    SessionOptions

	warmX map[string]linalg.Vec
	warmB map[string]linalg.Vec
	wbuf  []float64        // sanitized-weight scratch, reused across Reweights
	cg    linalg.CGScratch // CG work vectors, reused across Potentials calls
	stats SessionStats

	// Pre-resolved counters (nil without a registry) so the per-solve path
	// never touches the registry mutex.
	mSolves         *metrics.Counter
	mReweights      *metrics.Counter
	mDenseFallbacks *metrics.Counter
}

// SessionOptions configures NewSession.
type SessionOptions struct {
	// Full builds the complete Theorem 1.1 stack (sparsifier chain +
	// preconditioned Chebyshev, measured/charged rounds). The default runs
	// the zero-round internal CG path for callers that charge the
	// Theorem 1.1 formula themselves.
	Full bool
	// Solver configures the Full-mode solver (ledger, trace, sparsifier
	// chain policy). Ignored on the internal path.
	Solver lapsolver.Options
	// WarmStart seeds each solve slot with its previous potentials, scaled
	// by the projection of the new right-hand side onto the old one.
	// Convergence is still judged by the usual residual criteria, so warm
	// starting changes wall clock only.
	WarmStart bool
	// Trace, if non-nil, receives spans for guarded-recovery events (and is
	// propagated to the Full-mode solver when its own Trace is unset).
	Trace *trace.Tracer
	// Budget, if non-nil, is checked at every Potentials call and
	// propagated to the Full-mode solver. Exhaustion aborts with an error
	// unwrapping to rounds.ErrBudgetExceeded.
	Budget *rounds.Budget
	// NoFallback disables the internal path's exact dense fallback when CG
	// stagnates or fails to converge even after the cold retry, restoring
	// the historical fail-with-error behavior (and propagates to the
	// Full-mode solver as NoEscalation).
	NoFallback bool
	// Metrics, if non-nil, receives live session counters (solves,
	// reweights, dense fallbacks) and is propagated to the Full-mode
	// solver when its own Metrics is unset. A nil registry records nothing
	// and costs nothing.
	Metrics *metrics.Registry
}

// SessionStats counts session activity.
type SessionStats struct {
	// Solves counts Potentials calls.
	Solves int
	// Reweights counts Reweight calls.
	Reweights int
	// DenseFallbacks counts Potentials calls rescued by the exact dense
	// solve after the iterative path (warm and cold) failed.
	DenseFallbacks int
}

// NewSession prepares a session over g. The session takes ownership of g:
// all weight changes must go through Reweight. In Full mode the underlying
// solver additionally requires g to be connected.
func NewSession(g *graph.Graph, opts SessionOptions) (*Session, error) {
	s := &Session{
		g:     g,
		lap:   linalg.NewLaplacian(g),
		opts:  opts,
		warmX: make(map[string]linalg.Vec),
		warmB: make(map[string]linalg.Vec),
	}
	s.precond = linalg.NewVec(g.N())
	s.refreshPrecond()
	s.opts.Budget.BindIfUnbound(opts.Solver.Ledger)
	if reg := opts.Metrics; reg != nil {
		reg.MirrorLedger(opts.Solver.Ledger)
		s.mSolves = reg.Counter("lapcc_electrical_solves_total", "Electrical session Potentials calls.")
		s.mReweights = reg.Counter("lapcc_electrical_reweights_total", "Electrical session Reweight calls.")
		s.mDenseFallbacks = reg.Counter("lapcc_electrical_dense_fallbacks_total", "Potentials calls rescued by the exact dense fallback.")
	}
	if opts.Full {
		if opts.Trace != nil && s.opts.Solver.Trace == nil {
			s.opts.Solver.Trace = opts.Trace
		}
		if opts.Budget != nil && s.opts.Solver.Budget == nil {
			s.opts.Solver.Budget = opts.Budget
		}
		if opts.Metrics != nil && s.opts.Solver.Metrics == nil {
			s.opts.Solver.Metrics = opts.Metrics
		}
		if opts.NoFallback {
			s.opts.Solver.NoEscalation = true
		}
		solver, err := lapsolver.NewSolver(g, s.opts.Solver)
		if err != nil {
			return nil, fmt.Errorf("electrical: session: %w", err)
		}
		s.solver = solver
	}
	return s, nil
}

// refreshPrecond recomputes the Jacobi preconditioner diagonal in place,
// with the same isolated-vertex clamp as linalg.LaplacianCGSolver.
func (s *Session) refreshPrecond() {
	deg := s.lap.Degrees()
	for i := range s.precond {
		if deg[i] <= 0 {
			s.precond[i] = 1
		} else {
			s.precond[i] = deg[i]
		}
	}
}

// Graph returns the session's working graph with the current conductances.
// The caller must not mutate it; use Reweight.
func (s *Session) Graph() *graph.Graph { return s.g }

// Laplacian returns the Laplacian of the current conductances.
func (s *Session) Laplacian() *linalg.Laplacian { return s.lap }

// Solver returns the Full-mode solver, or nil on the internal path.
func (s *Session) Solver() *lapsolver.Solver { return s.solver }

// Stats returns the lifetime session counters.
func (s *Session) Stats() SessionStats { return s.stats }

// Reweight swaps the per-edge conductances (indexed by edge id) in place.
// Degenerate conductances — non-positive, NaN, or infinite — are clamped to
// 1e-12, the convention the flow IPMs apply to barrier weights at capacity
// walls. Topology, scratch, and (on reuse) the Full-mode sparsifier
// structure survive; nothing is reallocated on the internal path.
func (s *Session) Reweight(w []float64) error {
	if len(w) != s.g.M() {
		return fmt.Errorf("electrical: session reweight with %d weights for %d edges", len(w), s.g.M())
	}
	s.stats.Reweights++
	s.mReweights.Inc()
	if s.wbuf == nil {
		s.wbuf = make([]float64, len(w))
	}
	for i, weight := range w {
		if weight <= 0 || math.IsInf(weight, 0) || math.IsNaN(weight) {
			weight = 1e-12
		}
		s.wbuf[i] = weight
	}
	if err := s.g.SetWeights(s.wbuf); err != nil {
		return fmt.Errorf("electrical: session reweight: %w", err)
	}
	s.lap.Refresh()
	s.refreshPrecond()
	if s.solver != nil {
		// The solver works on its own clone; hand it the sanitized weights.
		return s.solver.Reweight(s.wbuf)
	}
	return nil
}

// Potentials solves L phi = b on the current conductances to precision eps
// (relative CG residual on the internal path, L_G-norm error in Full mode).
// slot names an independent warm-start lane — callers with several
// distinct right-hand-side families per iteration (e.g. the IPMs'
// augmentation and fixing solves) keep them from clobbering each other's
// seeds.
func (s *Session) Potentials(b linalg.Vec, eps float64, slot string) (linalg.Vec, error) {
	if err := s.opts.Budget.Check("potentials"); err != nil {
		return nil, fmt.Errorf("electrical: session potentials: %w", err)
	}
	s.stats.Solves++
	s.mSolves.Inc()
	if s.solver != nil {
		x, _, err := s.solver.Solve(b, eps)
		if err != nil {
			return nil, fmt.Errorf("electrical: session potentials: %w", err)
		}
		return x, nil
	}
	x, dense, err := s.solveInternal(b, eps, s.warmSeed(b, slot))
	if dense {
		s.stats.DenseFallbacks++
		s.mDenseFallbacks.Inc()
	}
	if err != nil {
		return nil, fmt.Errorf("electrical: session potentials: %w", err)
	}
	if s.opts.WarmStart {
		s.warmX[slot] = x.Clone()
		s.warmB[slot] = b.Clone()
	}
	return x, nil
}

// warmSeed returns the warm-start guess for slot against the new right-hand
// side b (nil when warm starting is off, the slot is cold, or the seed would
// be degenerate). It only reads session state.
func (s *Session) warmSeed(b linalg.Vec, slot string) linalg.Vec {
	if !s.opts.WarmStart {
		return nil
	}
	wx, wb := s.warmX[slot], s.warmB[slot]
	if wx == nil || wb == nil {
		return nil
	}
	den := wb.Dot(wb)
	if den <= 0 {
		return nil
	}
	c := b.Dot(wb) / den
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return nil
	}
	x0 := wx.Clone()
	x0.Scale(c)
	return x0
}

// solveInternal runs the internal-path solve ladder — warm CG, cold retry,
// dense fallback — against the current Laplacian. dense reports whether the
// exact fallback produced the result.
func (s *Session) solveInternal(b linalg.Vec, eps float64, x0 linalg.Vec) (x linalg.Vec, dense bool, err error) {
	// The stagnation window turns a hopeless plateau into a prompt typed
	// error (and thus a dense fallback) instead of a full MaxIter burn; a
	// healthy CG run exits on tolerance long before any window matters.
	x, _, err = linalg.SolveCG(s.lap, b, linalg.CGOptions{
		Tol:              eps,
		Precond:          s.precond,
		ProjectMean:      true,
		X0:               x0,
		Scratch:          &s.cg,
		StagnationWindow: cgStagnationWindow,
	})
	if err != nil && x0 != nil {
		// Warm starting is an optimization, never a correctness dependency:
		// a degenerate seed must not fail a solve that succeeds cold.
		x, _, err = linalg.SolveCG(s.lap, b, linalg.CGOptions{
			Tol:              eps,
			Precond:          s.precond,
			ProjectMean:      true,
			Scratch:          &s.cg,
			StagnationWindow: cgStagnationWindow,
		})
	}
	if err != nil && !s.opts.NoFallback {
		// Guarded recovery: the support is globally known on this path, so
		// an exact dense solve costs zero extra rounds — it is pure internal
		// computation, just much more memory- and time-hungry.
		sp := s.opts.Trace.Start("session-dense-fallback")
		x, err = linalg.LaplacianPseudoSolve(s.lap.Dense(), b)
		sp.End()
		if err == nil {
			dense = true
		}
	}
	return x, dense, err
}
