package sparsify

import (
	"fmt"
	"math"

	"lapcc/internal/graph"
	"lapcc/internal/rounds"
)

// Chain is the build-once/reweight-many session form of Sparsify. It
// separates the *structure* of the CGLN+20 chain — which edges fall in which
// binary weight class, the per-class expander-decomposition levels, and the
// product-demand skeletons emitted for each certified part — from the edge
// *weights*. The structure is a pure function of (n, per-class edge-ID
// sets): Sparsify never reads a weight except to pick the class index and
// the per-class scale 2^ci. Reweight exploits that:
//
//   - if the class partition is unchanged, a fresh rebuild would be
//     bit-identical, so the existing sparsifier is reused exactly;
//   - if the partition changed but the multiplicative weight envelope since
//     the last reference point is small, the sandwich
//     a·L_G ≼ L_G' ≼ b·L_G (with b/a = envelope) bounds the drifted
//     approximation factor by alphaRef·sqrt(envelope), so the structure is
//     still a certified preconditioner and is reused without measurement;
//   - past the envelope bound, α is re-measured with the Lanczos pencil
//     estimate; only when the measured α exceeds maxAlpha does the chain
//     fall back to a full rebuild.
//
// Reuse never changes *charged* rounds, only wall clock: every reuse
// replays the recorded build schedule (one CS20 decomposition charge plus
// one broadcast round per level), exactly what a fresh build with the same
// level structure would put on the ledger. See DESIGN.md §8.
type Chain struct {
	g    *graph.Graph // owned working copy; reweighted in place
	res  *Result
	opts ChainOptions

	classRef []int     // per-edge weight class at the last build
	wRef     []float64 // weights at the last α reference point
	alphaRef float64   // α measured at the last reference point (0 = not yet)
	levels   int       // recorded charge schedule: levels of the last build
	n        int

	stats    ChainStats
	mirrored ChainStats // stats already mirrored into the metrics registry
}

// ChainOptions configures NewChain.
type ChainOptions struct {
	// Sparsify configures the underlying builds (its Ledger and Trace are
	// the chain's ledger and tracer).
	Sparsify Options
	// ExactOnly restricts Reweight to tier-1 reuse: the structure is kept
	// only when the class partition is unchanged — where a fresh rebuild
	// would be bit-identical — and every other reweight rebuilds. This
	// trades the drift-certified reuse tiers for a hard guarantee that the
	// chain's sparsifier always equals what a cold build on the current
	// weights would produce, which the serving layer's differential
	// contract (pooled responses bit-identical to fresh solves) requires.
	ExactOnly bool
}

// Reweight's reuse policy.
const (
	// maxAlpha is the α bound past which Reweight abandons the current
	// structure and rebuilds; kappa = α² stays well under the solver's
	// doubling cap.
	maxAlpha = 64
	// driftBound is the cheap reuse certificate: while the multiplicative
	// weight envelope max_i(w_i/wRef_i) / min_i(w_i/wRef_i) stays at or
	// below it, the drifted α is bounded by alphaRef·sqrt(driftBound)
	// without any measurement.
	driftBound = 16
	// lanczosK is the Krylov dimension of the α re-measurement.
	lanczosK = 40
)

// ChainStats counts what Reweight did over the chain's lifetime.
type ChainStats struct {
	// Reweights counts Reweight calls.
	Reweights int
	// ExactReuses counts reweights with an unchanged class partition
	// (bit-identical rebuild avoided).
	ExactReuses int
	// DriftReuses counts reweights served under the envelope certificate.
	DriftReuses int
	// Remeasures counts Lanczos α re-measurements.
	Remeasures int
	// Rebuilds counts full rebuilds (the initial build is not counted).
	Rebuilds int
}

// NewChain builds the sparsifier chain for g and records the structure
// needed for reuse. The chain takes ownership of g: the caller must not
// mutate it afterwards and must route all weight changes through Reweight.
func NewChain(g *graph.Graph, opts ChainOptions) (*Chain, error) {
	c := &Chain{g: g, opts: opts, n: g.N()}
	if err := c.build(); err != nil {
		return nil, err
	}
	return c, nil
}

// build runs a fresh Sparsify on the current weights and resets every
// reference the reuse policy diffs against.
func (c *Chain) build() error {
	res, err := Sparsify(c.g, c.opts.Sparsify)
	if err != nil {
		return err
	}
	c.res = res
	c.levels = res.Levels
	c.classRef = c.classes()
	c.wRef = c.g.Weights()
	c.alphaRef = 0 // lazily measured, only when the envelope certificate trips
	return nil
}

// classes returns the binary weight class per edge, in edge order — the
// exact quantity Sparsify partitions by.
func (c *Chain) classes() []int {
	cl := make([]int, c.g.M())
	for id, e := range c.g.Edges() {
		cl[id] = int(math.Floor(math.Log2(e.W)))
	}
	return cl
}

// H returns the current sparsifier. The caller must not modify it.
func (c *Chain) H() *graph.Graph { return c.res.H }

// Result returns the current build's Result (sparsifier plus level/part
// counters). The caller must not modify it.
func (c *Chain) Result() *Result { return c.res }

// Graph returns the chain's working graph, carrying the current weights.
// The caller must not mutate it directly; use Reweight.
func (c *Chain) Graph() *graph.Graph { return c.g }

// Stats returns the lifetime reuse counters.
func (c *Chain) Stats() ChainStats { return c.stats }

// SetBudget replaces the budget consulted by subsequent rebuilds, binding it
// to the chain's ledger so its round limit meters from the current totals. A
// nil budget removes the limit. The serving layer uses this to apply
// per-request admission budgets to pooled chains.
func (c *Chain) SetBudget(b *rounds.Budget) {
	b.Bind(c.opts.Sparsify.Ledger)
	c.opts.Sparsify.Budget = b
}

// mirrorStats pushes the counter increments since the last mirror into the
// chain's metrics registry (the reweight-vs-rebuild hit counters of the
// live exposition). No-op without a registry.
func (c *Chain) mirrorStats() {
	reg := c.opts.Sparsify.Metrics
	if reg == nil {
		return
	}
	help := "Chain reweight decisions by outcome."
	reg.Counter("lapcc_sparsify_chain_reweights_total", "Chain.Reweight calls.").Add(int64(c.stats.Reweights - c.mirrored.Reweights))
	reg.Counter("lapcc_sparsify_chain_reuse_total", help, "outcome", "exact").Add(int64(c.stats.ExactReuses - c.mirrored.ExactReuses))
	reg.Counter("lapcc_sparsify_chain_reuse_total", help, "outcome", "drift").Add(int64(c.stats.DriftReuses - c.mirrored.DriftReuses))
	reg.Counter("lapcc_sparsify_chain_remeasures_total", "Lanczos alpha re-measurements.").Add(int64(c.stats.Remeasures - c.mirrored.Remeasures))
	reg.Counter("lapcc_sparsify_chain_rebuilds_total", "Full sparsifier rebuilds forced by alpha drift.").Add(int64(c.stats.Rebuilds - c.mirrored.Rebuilds))
	c.mirrored = c.stats
}

// Alpha returns the last measured approximation factor, or 0 when no
// measurement has been needed yet (reuse so far certified structurally).
func (c *Chain) Alpha() float64 { return c.alphaRef }

// replayCharges puts the recorded build schedule on the ledger: per level,
// one CS20 decomposition charge plus the one-round part-id broadcast —
// exactly the Adds a fresh build with this level structure performs, so a
// reused solve is indistinguishable from a fresh one in charged rounds.
func (c *Chain) replayCharges() {
	led := c.opts.Sparsify.Ledger
	if led == nil {
		return
	}
	for lv := 0; lv < c.levels; lv++ {
		led.Add("sparsify-decomp", rounds.Charged,
			rounds.ExpanderDecompRounds(c.n, levelEps, gamma), rounds.CiteCS20)
		led.Add("sparsify-bcast", rounds.Measured, 1, "all-to-all broadcast, 1 round")
	}
}

// envelope returns max_i(w_i/wRef_i) / min_i(w_i/wRef_i) over the current
// weights — the multiplicative drift since the last α reference point.
func (c *Chain) envelope() float64 {
	lo, hi := math.Inf(1), 0.0
	for id, e := range c.g.Edges() {
		r := e.W / c.wRef[id]
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if lo <= 0 || hi == 0 {
		return math.Inf(1)
	}
	return hi / lo
}

// Reweight updates the chain to new edge weights (indexed by edge id; all
// must be positive and finite) and decides, per the α-drift policy above,
// whether the existing structure is reused or rebuilt. It returns true when
// the structure was reused, false when it was rebuilt.
func (c *Chain) Reweight(w []float64) (bool, error) {
	if len(w) != c.g.M() {
		return false, fmt.Errorf("sparsify: reweight with %d weights for %d edges", len(w), c.g.M())
	}
	c.stats.Reweights++
	defer c.mirrorStats()
	tr := c.opts.Sparsify.Trace
	sp := tr.Startf("reweight-%d", c.stats.Reweights)
	defer sp.End()

	if err := c.g.SetWeights(w); err != nil {
		return false, fmt.Errorf("sparsify: reweight: %w", err)
	}
	samePartition := true
	for id := range w {
		if int(math.Floor(math.Log2(w[id]))) != c.classRef[id] {
			samePartition = false
			break
		}
	}

	// Tier 1: identical class partition. Sparsify's structure is a pure
	// function of the partition, so a fresh rebuild would be bit-identical;
	// reuse is exact. (Within a class, weights move by < 2x, so α moves by
	// < 2x too — no measurement needed.)
	if samePartition {
		c.stats.ExactReuses++
		c.replayCharges()
		return true, nil
	}

	// ExactOnly forgoes tiers 2 and 3: any partition change rebuilds, so the
	// sparsifier never drifts from what a cold build would produce.
	if c.opts.ExactOnly {
		rsp := tr.Startf("rebuild-%d", c.stats.Rebuilds+1)
		defer rsp.End()
		c.stats.Rebuilds++
		if err := c.build(); err != nil {
			return false, fmt.Errorf("sparsify: rebuild after reweight: %w", err)
		}
		return false, nil
	}

	// Tier 2: partition changed, but the weight envelope since the last
	// reference point still certifies α ≤ alphaRef·sqrt(envelope) (or, with
	// no measurement yet, a bounded multiple of the build quality).
	env := c.envelope()
	base := c.alphaRef
	if base == 0 {
		base = 1
	}
	if env <= driftBound && base*math.Sqrt(env) <= maxAlpha {
		c.stats.DriftReuses++
		c.replayCharges()
		return true, nil
	}

	// Tier 3: the cheap certificate tripped — re-measure α against the
	// current weights with the Lanczos pencil estimate, and keep the
	// structure only if it is still a maxAlpha-quality preconditioner.
	if c.g.IsConnected() && c.res.H.IsConnected() {
		c.stats.Remeasures++
		alpha, err := MeasureAlphaLanczos(c.g, c.res.H, lanczosK)
		if err == nil && alpha <= maxAlpha {
			c.alphaRef = alpha
			c.wRef = c.g.Weights()
			c.stats.DriftReuses++
			c.replayCharges()
			return true, nil
		}
	}

	// Rebuild: α drifted past the bound (or could not be certified).
	rsp := tr.Startf("rebuild-%d", c.stats.Rebuilds+1)
	defer rsp.End()
	c.stats.Rebuilds++
	if err := c.build(); err != nil {
		return false, fmt.Errorf("sparsify: rebuild after reweight: %w", err)
	}
	return false, nil
}
