// Package flowround implements Cohen's deterministic flow-rounding
// algorithm (Algorithm 1 / Lemma 4.2): given an s-t flow whose values are
// multiples of Delta (1/Delta a power of two), round every edge flow to an
// integer such that conservation is preserved, the flow value does not
// decrease, and — when the total flow is integral and costs are given — the
// total cost does not increase. Each of the log2(1/Delta) scaling levels
// pairs the "odd" edges into an Eulerian subgraph and orients it with the
// Theorem 1.4 algorithm (package euler), so the whole procedure takes
// O(log n log* n log(1/Delta)) congested-clique rounds.
package flowround

import (
	"errors"
	"fmt"
	"math"

	"lapcc/internal/cc"
	"lapcc/internal/euler"
	"lapcc/internal/graph"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/trace"
)

// Options configures RoundWith.
type Options struct {
	// Ledger, if non-nil, records the round costs of the run.
	Ledger *rounds.Ledger
	// Trace, if non-nil, receives hierarchical span and cost events for
	// this call (see internal/trace); a nil tracer records nothing and
	// costs nothing.
	Trace *trace.Tracer
	// Faults, if non-nil, injects the given fault plan into every network
	// primitive of each level's Eulerian orientation; results are
	// bit-identical to a fault-free run at a larger round cost.
	Faults *cc.FaultPlan
	// Transport, if non-nil, physically carries every routing step of each
	// level's Eulerian orientation through the given delivery backend (see
	// cc.Transport); nil keeps the in-process path. The rounded flow is
	// bit-identical either way.
	Transport cc.Transport
	// Budget, if non-nil, is checked at every scaling level; exhaustion
	// aborts with an error unwrapping to rounds.ErrBudgetExceeded.
	Budget *rounds.Budget
	// Metrics, if non-nil, receives live counters (rounding calls, scaling
	// levels) and a mirror of the ledger's cost stream, and is propagated
	// to each level's Eulerian orientation. A nil registry records nothing
	// and costs nothing.
	Metrics *metrics.Registry
}

// forcedCost is the sentinel cost forcing the virtual (t,s) arc to be a
// forward edge of any cycle containing it (Algorithm 1, line 8).
const forcedCost = int64(1) << 40

// ErrBadDelta reports a Delta that is not a power of two in (0, 1].
var ErrBadDelta = errors.New("flowround: 1/Delta must be a power of two")

// ErrNotOnGrid reports a flow value that is not a multiple of Delta.
var ErrNotOnGrid = errors.New("flowround: flow value not a multiple of Delta")

// ErrNotConserved reports a flow violating conservation at some vertex.
var ErrNotConserved = errors.New("flowround: flow does not satisfy conservation")

// Round rounds the s-t flow f on dg to integer values. f[i] is the flow on
// arc i and must be a non-negative multiple of delta; conservation must
// hold at every vertex except s and t. useCosts selects the cost-aware
// variant (arc costs are read from dg); per Cohen, the cost guarantee
// applies when the total flow value is integral. Rounds are recorded in led
// (may be nil).
//
// The returned flow has, for every arc, a value in {floor(f), ceil(f)},
// conserves at every vertex except s and t, and has value at least the
// input's.
func Round(dg *graph.DiGraph, f []float64, s, t int, delta float64, useCosts bool, led *rounds.Ledger) ([]int64, error) {
	return RoundWith(dg, f, s, t, delta, useCosts, Options{Ledger: led})
}

// RoundWith is Round with full Options (tracing, orientation mode).
func RoundWith(dg *graph.DiGraph, f []float64, s, t int, delta float64, useCosts bool, opts Options) ([]int64, error) {
	led, tr := opts.Ledger, opts.Trace
	tr.Attach(led)
	opts.Metrics.MirrorLedger(led)
	sp := tr.Start("flowround")
	defer sp.End()
	if len(f) != dg.M() {
		return nil, fmt.Errorf("flowround: %d flow values for %d arcs", len(f), dg.M())
	}
	if err := checkDelta(delta); err != nil {
		return nil, err
	}
	// Work in integer units of delta to avoid float drift across levels.
	unit := make([]int64, len(f)+1) // +1 for the virtual (t,s) arc
	for i, v := range f {
		if v < 0 {
			return nil, fmt.Errorf("flowround: negative flow %v on arc %d", v, i)
		}
		u := math.Round(v / delta)
		if math.Abs(v-u*delta) > 1e-9*delta+1e-12 {
			return nil, fmt.Errorf("%w: arc %d has flow %v at delta %v", ErrNotOnGrid, i, v, delta)
		}
		unit[i] = int64(u)
	}
	if v := conservationViolator(dg, unit[:len(f)], s, t); v >= 0 {
		return nil, fmt.Errorf("%w: vertex %d", ErrNotConserved, v)
	}

	// Virtual (t,s) arc carrying the total flow value turns the flow into a
	// circulation (Algorithm 1, lines 1-2).
	var value int64
	for _, ai := range dg.Out(s) {
		value += unit[ai]
	}
	for _, ai := range dg.In(s) {
		value -= unit[ai]
	}
	if value < 0 {
		return nil, fmt.Errorf("flowround: negative flow value %d*delta at source", value)
	}
	unit[len(f)] = value
	arcEnds := func(i int) (int, int, int64) {
		if i == len(f) {
			return t, s, 0
		}
		a := dg.Arc(i)
		return a.From, a.To, a.Cost
	}

	levels := int(math.Round(math.Log2(1 / delta)))
	if reg := opts.Metrics; reg != nil {
		reg.Counter("lapcc_flowround_rounds_total", "Flow-rounding calls.").Inc()
		reg.Counter("lapcc_flowround_levels_total", "Scaling levels executed.").Add(int64(levels))
	}
	opts.Budget.BindIfUnbound(led)
	var edges []graph.Edge // the parity graph's edges, reused by every level
	for level := 0; level < levels; level++ {
		if err := opts.Budget.Check(fmt.Sprintf("flowround-level-%d", level)); err != nil {
			return nil, fmt.Errorf("flowround: %w", err)
		}
		lsp := tr.Startf("level-%d", level)
		// E' = arcs whose flow is an odd multiple of the current unit.
		var odd []int
		for i := range unit {
			if unit[i]%2 != 0 {
				odd = append(odd, i)
			}
		}
		if len(odd) > 0 {
			edges = edges[:0]
			for _, i := range odd {
				from, to, _ := arcEnds(i)
				edges = append(edges, graph.Edge{U: from, V: to, W: 1})
			}
			g, err := graph.FromEdges(dg.N(), edges)
			if err != nil {
				lsp.End()
				return nil, fmt.Errorf("flowround: building parity graph: %w", err)
			}
			dirCost := make([]int64, 0, len(odd))
			for id, i := range odd {
				from, to, cost := arcEnds(i)
				// Orienting the undirected edge U->V means the cycle
				// traverses the arc forward exactly when the arc runs U->V.
				c := int64(0)
				if i == len(f) {
					c = -forcedCost // force the (t,s) arc forward
				} else if useCosts {
					c = cost
				}
				e := g.Edge(id)
				if e.U == from && e.V == to {
					dirCost = append(dirCost, c)
				} else {
					dirCost = append(dirCost, -c)
				}
			}
			orient, _, err := euler.Orient(g, dirCost, euler.Options{
				Ledger: led, Trace: tr, Faults: opts.Faults, Transport: opts.Transport, Budget: opts.Budget, Metrics: opts.Metrics,
			})
			if err != nil {
				lsp.End()
				return nil, fmt.Errorf("flowround: level %d: %w", level, err)
			}
			for j, i := range odd {
				from, _, _ := arcEnds(i)
				e := g.Edge(j)
				forward := (orient[j] && e.U == from) || (!orient[j] && e.V == from)
				if forward {
					unit[i]++
				} else {
					unit[i]--
				}
				if unit[i] < 0 {
					lsp.End()
					return nil, fmt.Errorf("flowround: arc %d driven negative at level %d", i, level)
				}
			}
		}
		// Rescale: unit doubles, so halve the counters.
		for i := range unit {
			if unit[i]%2 != 0 {
				lsp.End()
				return nil, fmt.Errorf("flowround: arc %d still odd after level %d", i, level)
			}
			unit[i] /= 2
		}
		lsp.End()
	}

	out := make([]int64, len(f))
	copy(out, unit[:len(f)])
	return out, nil
}

// SnapToGrid rounds each flow value to the nearest multiple of delta and
// repairs the conservation error this introduces by routing per-vertex
// imbalances along a BFS spanning tree (internal computation). The result
// satisfies the preconditions of Round; each arc moves by at most
// n*delta from its snapped value. High-accuracy IPM solutions feed through
// this before rounding.
func SnapToGrid(dg *graph.DiGraph, f []float64, s, t int, delta float64) ([]float64, error) {
	if len(f) != dg.M() {
		return nil, fmt.Errorf("flowround: %d flow values for %d arcs", len(f), dg.M())
	}
	if err := checkDelta(delta); err != nil {
		return nil, err
	}
	unit := make([]int64, len(f))
	for i, v := range f {
		unit[i] = int64(math.Round(v / delta))
		if unit[i] < 0 {
			unit[i] = 0
		}
	}
	// Imbalance in delta units at every vertex except s and t.
	imbalance := make([]int64, dg.N())
	for i, a := range dg.Arcs() {
		imbalance[a.From] -= unit[i]
		imbalance[a.To] += unit[i]
	}
	// BFS tree over the undirected support, rooted at s; push imbalances
	// from the leaves toward the root.
	parentArc := make([]int, dg.N())
	parentDir := make([]int64, dg.N()) // +1: arc points to parent, -1: from parent
	order := make([]int, 0, dg.N())
	seen := make([]bool, dg.N())
	seen[s] = true
	queue := []int{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, ai := range dg.Out(v) {
			if w := dg.Arc(ai).To; !seen[w] {
				seen[w] = true
				parentArc[w] = ai
				parentDir[w] = -1
				queue = append(queue, w)
			}
		}
		for _, ai := range dg.In(v) {
			if w := dg.Arc(ai).From; !seen[w] {
				seen[w] = true
				parentArc[w] = ai
				parentDir[w] = +1
				queue = append(queue, w)
			}
		}
	}
	for i := len(order) - 1; i >= 1; i-- {
		v := order[i]
		if v == t {
			continue // s and t absorb imbalance (it is the flow value)
		}
		d := imbalance[v]
		if d == 0 {
			continue
		}
		ai := parentArc[v]
		// Move d units of excess along the tree arc toward the parent:
		// excess d > 0 means too much inflow, so push out toward the parent
		// (increase flow on a v->parent arc, or reduce inflow on a
		// parent->v arc); deficits flow the other way by sign.
		a := dg.Arc(ai)
		if parentDir[v] == +1 { // arc runs v -> parent
			unit[ai] += d
		} else { // arc runs parent -> v
			unit[ai] -= d
		}
		parent := a.From
		if parent == v {
			parent = a.To
		}
		imbalance[v] = 0
		imbalance[parent] += d
	}
	out := make([]float64, len(f))
	for i := range out {
		if unit[i] < 0 {
			// Tree repair can drive a tree arc negative; shift is legal for
			// rounding purposes only if we clamp and re-route, but a clamp
			// breaks conservation. Fail loudly instead: callers with flows
			// this far from feasibility must repair upstream.
			return nil, fmt.Errorf("flowround: snap repair drove arc %d to %d*delta", i, unit[i])
		}
		out[i] = float64(unit[i]) * delta
	}
	if v := conservationViolator(dg, unit, s, t); v >= 0 {
		return nil, fmt.Errorf("%w after snap repair: vertex %d", ErrNotConserved, v)
	}
	return out, nil
}

func checkDelta(delta float64) error {
	if delta <= 0 || delta > 1 {
		return fmt.Errorf("%w: got %v", ErrBadDelta, delta)
	}
	inv := 1 / delta
	if math.Abs(inv-math.Round(inv)) > 1e-9 {
		return fmt.Errorf("%w: got %v", ErrBadDelta, delta)
	}
	k := int64(math.Round(inv))
	if k&(k-1) != 0 {
		return fmt.Errorf("%w: 1/Delta = %d", ErrBadDelta, k)
	}
	return nil
}

// conservationViolator returns the first vertex (other than s and t) whose
// in-flow differs from its out-flow, or -1.
func conservationViolator(dg *graph.DiGraph, unit []int64, s, t int) int {
	imbalance := make([]int64, dg.N())
	for i, a := range dg.Arcs() {
		imbalance[a.From] -= unit[i]
		imbalance[a.To] += unit[i]
	}
	for v, d := range imbalance {
		if v != s && v != t && d != 0 {
			return v
		}
	}
	return -1
}

// Value returns the s-t value of an integer flow.
func Value(dg *graph.DiGraph, f []int64, s int) int64 {
	var value int64
	for _, ai := range dg.Out(s) {
		value += f[ai]
	}
	for _, ai := range dg.In(s) {
		value -= f[ai]
	}
	return value
}

// Cost returns the total cost of an integer flow.
func Cost(dg *graph.DiGraph, f []int64) int64 {
	var c int64
	for i, a := range dg.Arcs() {
		c += a.Cost * f[i]
	}
	return c
}
