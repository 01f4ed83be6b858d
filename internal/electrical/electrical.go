// Package electrical exposes the electrical-network primitives the
// Laplacian paradigm is used for: node potentials, electrical flows, edge
// currents, effective resistances, and energy — all driven by the
// Theorem 1.1 congested-clique solver. Both interior point methods
// (Theorems 1.2 and 1.3) consume exactly these primitives once per
// iteration; this package is their clean standalone form.
package electrical

import (
	"errors"
	"fmt"

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

// Network is a resistive network: an undirected graph whose edge weights
// are conductances (1/resistance). It is backed by a Session (build once,
// solve and reweight many times); Session() exposes it for callers that
// drive the reweight-per-iteration loop themselves.
type Network struct {
	g      *graph.Graph
	sess   *Session
	ledger *rounds.Ledger
}

// ErrSamePole reports injection and extraction at the same vertex.
var ErrSamePole = errors.New("electrical: poles must differ")

// NewNetwork prepares a network for repeated electrical queries on the run
// env; the sparsifier is built once and amortized across solves and, via
// Reweight, across conductance changes on the fixed topology.
func NewNetwork(g *graph.Graph, env runenv.Env) (*Network, error) {
	sess, err := NewSession(g.Clone(), SessionOptions{Env: env, Full: true})
	if err != nil {
		return nil, fmt.Errorf("electrical: %w", err)
	}
	// The session owns its working copy; Currents/Energy read it so they
	// always see the conductances of the latest Reweight.
	return &Network{g: sess.Graph(), sess: sess, ledger: env.Ledger}, nil
}

// Graph returns the network's working graph, carrying the current
// conductances. The caller must not mutate it; use Reweight.
func (nw *Network) Graph() *graph.Graph { return nw.g }

// Session returns the underlying build-once/solve-many session.
func (nw *Network) Session() *Session { return nw.sess }

// Reweight swaps the per-edge conductances in place, reusing the session's
// structure (sparsifier chain, scratch) per the α-drift policy; see
// Session.Reweight.
func (nw *Network) Reweight(w []float64) error {
	return nw.sess.Reweight(w)
}

// Potentials returns node potentials phi for the given current-demand
// vector b (b[v] = net current injected at v; must sum to zero), to
// relative precision eps in the L_G norm.
func (nw *Network) Potentials(b linalg.Vec, eps float64) (linalg.Vec, error) {
	phi, err := nw.sess.Potentials(b, eps, "network")
	if err != nil {
		return nil, fmt.Errorf("electrical: potentials: %w", err)
	}
	return phi, nil
}

// PolePotentials returns potentials for one ampere injected at source and
// extracted at sink.
func (nw *Network) PolePotentials(source, sink int, eps float64) (linalg.Vec, error) {
	if source == sink {
		return nil, ErrSamePole
	}
	b := linalg.NewVec(nw.g.N())
	b[source] = 1
	b[sink] = -1
	return nw.Potentials(b, eps)
}

// Currents returns the per-edge currents of the potential vector phi:
// current on edge {U,V} is (phi[U]-phi[V]) * conductance, positive in the
// U -> V direction.
func (nw *Network) Currents(phi linalg.Vec) []float64 {
	out := make([]float64, nw.g.M())
	for i, e := range nw.g.Edges() {
		out[i] = (phi[e.U] - phi[e.V]) * e.W
	}
	return out
}

// EffectiveResistance returns the effective resistance between two
// vertices (the potential difference under unit current).
func (nw *Network) EffectiveResistance(u, v int, eps float64) (float64, error) {
	phi, err := nw.PolePotentials(u, v, eps)
	if err != nil {
		return 0, err
	}
	return phi[u] - phi[v], nil
}

// Energy returns the dissipated energy of the potential vector phi:
// sum_e conductance * (potential drop)^2 = phi^T L phi.
func (nw *Network) Energy(phi linalg.Vec) float64 {
	return nw.sess.Laplacian().Quad(phi)
}

// MaxCurrentEdge returns the index and magnitude of the most loaded edge —
// the congestion quantity the flow IPMs steer by.
func (nw *Network) MaxCurrentEdge(phi linalg.Vec) (int, float64) {
	best, bestAbs := -1, 0.0
	for i, c := range nw.Currents(phi) {
		a := c
		if a < 0 {
			a = -a
		}
		if a > bestAbs {
			best, bestAbs = i, a
		}
	}
	return best, bestAbs
}
