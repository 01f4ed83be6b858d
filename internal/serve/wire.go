// Package serve is the solver-as-a-service layer behind cmd/lapccd: a
// stdlib-only HTTP/JSON daemon exposing the facade's algorithms as RPCs
// (POST /v1/solve, /v1/sparsify, /v1/orient, /v1/maxflow, /v1/mincostflow).
//
// The layer adds three things on top of core.Do:
//
//   - Session pooling. Solve and sparsify requests are keyed by the
//     canonical structural fingerprint of their graph (graph.Fingerprint,
//     weights excluded). Repeat topologies hit a pooled
//     core.LaplacianSession / sparsify.Chain, so only the weights are
//     swapped (the warm reweight path) instead of re-running the full
//     Theorem 3.3 preprocessing. Pooled sessions run with warm starting off
//     and exact-only chain reuse, which keeps every response bit-identical
//     to a direct one-shot facade call — the differential contract the e2e
//     tests pin.
//
//   - Admission control. A bounded in-flight slot count sheds load with a
//     typed 429 ("overloaded"), and each request may carry a rounds.Budget
//     ("budget": {"rounds": N, "wall_ms": M}) that propagates to every
//     phase boundary of the run; exhaustion surfaces as a typed 429
//     ("budget_exceeded") carrying the partial round count.
//
//   - Batched lanes. A solve request carries any number of right-hand
//     sides; they share one admission slot, one reweight, and one pooled
//     preprocessing, and the response reports the lane's round total.
//     Both solve paths, pooled and traced, hand them to one
//     core.LaplacianSession.SolveLanes call, which runs up to four at a
//     time as lanes of one Chebyshev iteration, each preconditioner solve
//     one pass over the factor for all of them, with the answers, rounds,
//     trace and budget errors of solving them one after another. A pooled
//     session's lane scratch is reused by every request that hits it,
//     serialized by the pool entry's mutex.
package serve

import (
	"fmt"
	"math"
	"time"

	"lapcc/internal/graph"
	"lapcc/internal/rounds"
)

// WireGraph is the JSON form of an undirected weighted graph: edge i is
// [u, v, w] and edge ids are positions in the list, matching
// graph.Graph edge ids (and therefore the weight vector of a reweight).
type WireGraph struct {
	N     int          `json:"n"`
	Edges [][3]float64 `json:"edges"`
}

// WireDiGraph is the JSON form of a directed capacitated graph: arc i is
// [from, to, cap, cost].
type WireDiGraph struct {
	N    int        `json:"n"`
	Arcs [][4]int64 `json:"arcs"`
}

// WireBudget is the JSON form of a per-request rounds.Budget. Zero fields
// are unlimited.
type WireBudget struct {
	Rounds int64 `json:"rounds,omitempty"`
	WallMS int64 `json:"wall_ms,omitempty"`
}

// WireRounds is the JSON form of a core.RoundReport. The human-readable
// Breakdown string stays server-side.
type WireRounds struct {
	Total    int64 `json:"total"`
	Measured int64 `json:"measured"`
	Charged  int64 `json:"charged"`
}

// SolveRequest asks for L_G x = b at relative precision eps for each
// right-hand side in RHS (the batched lane).
type SolveRequest struct {
	Graph  *WireGraph  `json:"graph"`
	RHS    [][]float64 `json:"rhs"`
	Eps    float64     `json:"eps,omitempty"` // default 1e-8
	Budget *WireBudget `json:"budget,omitempty"`
}

// SolveResponse carries one potential vector per requested right-hand side.
type SolveResponse struct {
	X               [][]float64 `json:"x"`
	Iterations      []int       `json:"iterations"`
	SparsifierEdges int         `json:"sparsifier_edges"`
	Cached          bool        `json:"cached"`
	Rounds          WireRounds  `json:"rounds"`
	Trace           *WireTrace  `json:"trace,omitempty"`
}

// SparsifyRequest asks for the Theorem 3.3 sparsifier of Graph.
type SparsifyRequest struct {
	Graph  *WireGraph  `json:"graph"`
	Budget *WireBudget `json:"budget,omitempty"`
}

// SparsifyResponse carries the sparsifier and its measured quality.
type SparsifyResponse struct {
	H      WireGraph  `json:"h"`
	Alpha  float64    `json:"alpha"`
	Cached bool       `json:"cached"`
	Rounds WireRounds `json:"rounds"`
	Trace  *WireTrace `json:"trace,omitempty"`
}

// OrientRequest asks for the Theorem 1.4 Eulerian orientation of Graph.
type OrientRequest struct {
	Graph  *WireGraph  `json:"graph"`
	Budget *WireBudget `json:"budget,omitempty"`
}

// OrientResponse carries one orientation bit per edge (true = U -> V).
type OrientResponse struct {
	Orient     []bool     `json:"orient"`
	Iterations int        `json:"iterations"`
	Rounds     WireRounds `json:"rounds"`
	Trace      *WireTrace `json:"trace,omitempty"`
}

// MaxFlowRequest asks for the exact maximum Source->Sink flow on Graph.
type MaxFlowRequest struct {
	Graph  *WireDiGraph `json:"graph"`
	Source int          `json:"source"`
	Sink   int          `json:"sink"`
	Budget *WireBudget  `json:"budget,omitempty"`
}

// MaxFlowResponse carries the optimal value and per-arc flow.
type MaxFlowResponse struct {
	Value              int64      `json:"value"`
	Flow               []int64    `json:"flow"`
	IPMIterations      int        `json:"ipm_iterations"`
	FinalAugmentations int        `json:"final_augmentations"`
	Rounds             WireRounds `json:"rounds"`
	Trace              *WireTrace `json:"trace,omitempty"`
}

// MinCostFlowRequest asks for a minimum-cost routing of the demand vector
// Sigma on Graph.
type MinCostFlowRequest struct {
	Graph  *WireDiGraph `json:"graph"`
	Sigma  []int64      `json:"sigma"`
	Budget *WireBudget  `json:"budget,omitempty"`
}

// MinCostFlowResponse carries the optimal cost and per-arc flow.
type MinCostFlowResponse struct {
	Flow                []int64    `json:"flow"`
	Cost                int64      `json:"cost"`
	ProgressIterations  int        `json:"progress_iterations"`
	RepairAugmentations int        `json:"repair_augmentations"`
	Rounds              WireRounds `json:"rounds"`
	Trace               *WireTrace `json:"trace,omitempty"`
}

// WireTrace is the span summary of a traced request (?trace=1 or the
// X-Lapcc-Trace header): the request ID keys the full JSONL stream at
// /v1/trace/{id}, Attributed is the fraction of recorded rounds landing
// inside some span, and Spans aggregates per phase path. Wall-clock times
// are deliberately absent — the summary, like the JSONL stream, carries
// only deterministic quantities.
type WireTrace struct {
	ID         string      `json:"id"`
	Attributed float64     `json:"attributed"`
	Spans      []WirePhase `json:"spans"`
}

// WirePhase is one aggregated row of a WireTrace.
type WirePhase struct {
	Path     string `json:"path"`
	Calls    int    `json:"calls"`
	Measured int64  `json:"measured"`
	Charged  int64  `json:"charged"`
	Messages int64  `json:"messages"`
}

// WireError is the daemon's error body, wrapped as {"error": {...}}. Codes:
// "bad_request" (400), "overloaded" and "budget_exceeded" (429),
// "internal" (500).
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Rounds carries the partial rounds consumed before a budget ran out
	// (budget_exceeded only).
	Rounds int64 `json:"rounds,omitempty"`
	// RequestID echoes the request's ID (also on the X-Lapcc-Request-Id
	// response header) so client-side failures join to the daemon's
	// access-log lines.
	RequestID string `json:"request_id,omitempty"`
}

type errorEnvelope struct {
	Error WireError `json:"error"`
}

// ToWireGraph converts g to its JSON form, preserving edge ids.
func ToWireGraph(g *graph.Graph) WireGraph {
	wg := WireGraph{N: g.N(), Edges: make([][3]float64, g.M())}
	for i, e := range g.Edges() {
		wg.Edges[i] = [3]float64{float64(e.U), float64(e.V), e.W}
	}
	return wg
}

// maxWireNodes bounds the n a request's graph may declare. Building a
// graph allocates its n adjacency lists before any edge is read, so an
// unbounded n would let a body of a few bytes ask for gigabytes; the bound
// is far above any instance the solvers are run on.
const maxWireNodes = 1 << 20

// checkWireNodes rejects an n outside 1..maxWireNodes.
func checkWireNodes(n int) error {
	if n <= 0 || n > maxWireNodes {
		return fmt.Errorf("graph: n must be in 1..%d, got %d", maxWireNodes, n)
	}
	return nil
}

// Graph materializes the wire form, assigning edge ids in list order.
func (wg *WireGraph) Graph() (*graph.Graph, error) {
	if wg == nil {
		return nil, fmt.Errorf("missing graph")
	}
	if err := checkWireNodes(wg.N); err != nil {
		return nil, err
	}
	g := graph.New(wg.N)
	for i, e := range wg.Edges {
		u, v, w := e[0], e[1], e[2]
		if u != math.Trunc(u) || v != math.Trunc(v) {
			return nil, fmt.Errorf("graph: edge %d endpoints [%g %g] not integral", i, u, v)
		}
		if _, err := g.AddEdge(int(u), int(v), w); err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
	}
	return g, nil
}

// ToWireDiGraph converts dg to its JSON form, preserving arc ids.
func ToWireDiGraph(dg *graph.DiGraph) WireDiGraph {
	wd := WireDiGraph{N: dg.N(), Arcs: make([][4]int64, dg.M())}
	for i, a := range dg.Arcs() {
		wd.Arcs[i] = [4]int64{int64(a.From), int64(a.To), a.Cap, a.Cost}
	}
	return wd
}

// DiGraph materializes the wire form, assigning arc ids in list order.
func (wd *WireDiGraph) DiGraph() (*graph.DiGraph, error) {
	if wd == nil {
		return nil, fmt.Errorf("missing graph")
	}
	if err := checkWireNodes(wd.N); err != nil {
		return nil, err
	}
	dg := graph.NewDi(wd.N)
	for i, a := range wd.Arcs {
		if _, err := dg.AddArc(int(a[0]), int(a[1]), a[2], a[3]); err != nil {
			return nil, fmt.Errorf("graph: arc %d: %w", i, err)
		}
	}
	return dg, nil
}

// Budget materializes the wire form (nil for no limits).
func (wb *WireBudget) Budget() (*rounds.Budget, error) {
	if wb == nil || (wb.Rounds == 0 && wb.WallMS == 0) {
		return nil, nil
	}
	if wb.Rounds < 0 || wb.WallMS < 0 {
		return nil, fmt.Errorf("budget: limits must be non-negative")
	}
	return rounds.NewBudget(wb.Rounds, time.Duration(wb.WallMS)*time.Millisecond), nil
}
