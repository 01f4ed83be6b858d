package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/rounds"
	"lapcc/internal/serve"
	"lapcc/internal/sparsify"
)

// replayN is how many requests the traced run replays.
const replayN = 50

// replayResult sums what the replay measured over its requests.
type replayResult struct {
	n       int
	handler time.Duration // the same requests' time in the daemon's handler
	decode  time.Duration // request JSON decode plus graph materialization
	encode  time.Duration // response JSON encode
	core    time.Duration // every public compute call the handler makes
	// Parts of core: sparsifier builds (a cold solve's session build or a
	// sparsify chain build), pooled reweights, alpha measurements, and
	// per-RHS solves.
	build, reweight, alpha, solve time.Duration
	rhs                           int
	mallocs, allocBytes           uint64
}

// replayer re-runs requests one at a time through the public calls the
// daemon's handlers make, so a handler time splits into codec and compute:
// solve is core.NewLaplacianSession, or Reweight+Solve when the daemon
// answered from its pool; sparsify is sparsify.NewChain (or Reweight) plus
// MeasureAlpha; the flow ops and orient are core.Do. Like the daemon's
// pool, it keeps one session per topology.
type replayer struct {
	run      core.RunOptions
	res      replayResult
	sessions map[uint64]*core.LaplacianSession
	chains   map[uint64]*sparsify.Chain
}

func newReplayer(run core.RunOptions) *replayer {
	return &replayer{run: run, sessions: map[uint64]*core.LaplacianSession{}, chains: map[uint64]*sparsify.Chain{}}
}

// replay re-runs the request behind s, whose response the daemon produced
// in handler time h.
func (r *replayer) replay(in instance, s sample, h time.Duration) error {
	var err error
	switch in.op {
	case "solve":
		err = r.solve(in.body, s.resp)
	case "sparsify":
		err = r.sparsify(in.body, s.resp)
	case "orient":
		err = r.orient(in.body, s.resp)
	case "maxflow":
		err = r.maxflow(in.body, s.resp)
	case "mincostflow":
		err = r.mincost(in.body, s.resp)
	}
	if err != nil {
		return fmt.Errorf("replay request %d (%s): %w", s.idx, in.op, err)
	}
	r.res.n++
	r.res.handler += h
	return nil
}

// timed runs one request's compute, charging its wall time and heap
// allocations to core.
func (r *replayer) timed(f func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := f()
	r.res.core += time.Since(t0)
	runtime.ReadMemStats(&m1)
	r.res.mallocs += m1.Mallocs - m0.Mallocs
	r.res.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	return err
}

// lap adds f's wall time to acc.
func lap(acc *time.Duration, f func() error) error {
	t0 := time.Now()
	err := f()
	*acc += time.Since(t0)
	return err
}

// decode times decoding body into req plus materializing its graph.
func (r *replayer) decode(body []byte, req any, materialize func() error) error {
	return lap(&r.res.decode, func() error {
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(req); err != nil {
			return err
		}
		return materialize()
	})
}

// encode times re-encoding a recorded response the way the daemon writes
// it; decoding the recorded bytes into resp is not timed.
func (r *replayer) encode(raw []byte, resp any) error {
	if err := json.Unmarshal(raw, resp); err != nil {
		return err
	}
	return lap(&r.res.encode, func() error { return json.NewEncoder(io.Discard).Encode(resp) })
}

func (r *replayer) solve(body, raw []byte) error {
	var (
		req  serve.SolveRequest
		resp serve.SolveResponse
		g    *graph.Graph
	)
	err := r.decode(body, &req, func() (err error) { g, err = req.Graph.Graph(); return err })
	if err != nil {
		return err
	}
	if err := r.encode(raw, &resp); err != nil {
		return err
	}
	eps := req.Eps
	if eps == 0 {
		eps = serve.DefaultEps
	}
	so := core.SessionOptions{Run: r.run, ExactReuse: true}
	fp := g.Fingerprint()
	sess := r.sessions[fp]
	if resp.Cached && sess == nil {
		// The daemon reused a session built before the window; build the
		// replay's counterpart untimed.
		if sess, err = core.NewLaplacianSession(g, so); err != nil {
			return err
		}
		r.sessions[fp] = sess
	}
	r.res.rhs += len(req.RHS)
	return r.timed(func() error {
		var err error
		if resp.Cached {
			err = lap(&r.res.reweight, func() error { return sess.Reweight(g.Weights()) })
		} else {
			err = lap(&r.res.build, func() (err error) { sess, err = core.NewLaplacianSession(g, so); return err })
			r.sessions[fp] = sess
		}
		if err != nil {
			return err
		}
		return lap(&r.res.solve, func() error {
			for _, b := range req.RHS {
				if _, err := sess.Solve(linalg.Vec(b), eps); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

func (r *replayer) sparsify(body, raw []byte) error {
	var (
		req  serve.SparsifyRequest
		resp serve.SparsifyResponse
		g    *graph.Graph
	)
	err := r.decode(body, &req, func() (err error) { g, err = req.Graph.Graph(); return err })
	if err != nil {
		return err
	}
	if err := r.encode(raw, &resp); err != nil {
		return err
	}
	newChain := func() (*sparsify.Chain, error) {
		return sparsify.NewChain(g.Clone(), sparsify.ChainOptions{
			ExactOnly: true,
			Sparsify:  sparsify.Options{Ledger: rounds.New(), Workers: r.run.Workers, Metrics: r.run.Metrics},
		})
	}
	fp := g.Fingerprint()
	chain := r.chains[fp]
	if resp.Cached && chain == nil {
		if chain, err = newChain(); err != nil {
			return err
		}
		r.chains[fp] = chain
	}
	return r.timed(func() error {
		var err error
		if resp.Cached {
			err = lap(&r.res.reweight, func() error { _, err := chain.Reweight(g.Weights()); return err })
		} else {
			err = lap(&r.res.build, func() (err error) { chain, err = newChain(); return err })
			r.chains[fp] = chain
		}
		if err != nil || !g.IsConnected() {
			return err
		}
		return lap(&r.res.alpha, func() error { _, err := sparsify.MeasureAlpha(g, chain.H(), 150); return err })
	})
}

func (r *replayer) orient(body, raw []byte) error {
	var (
		req  serve.OrientRequest
		resp serve.OrientResponse
		g    *graph.Graph
	)
	err := r.decode(body, &req, func() (err error) { g, err = req.Graph.Graph(); return err })
	if err != nil {
		return err
	}
	if err := r.encode(raw, &resp); err != nil {
		return err
	}
	return r.do(core.Request{Op: core.OpOrient, Graph: g})
}

func (r *replayer) maxflow(body, raw []byte) error {
	var (
		req  serve.MaxFlowRequest
		resp serve.MaxFlowResponse
		dg   *graph.DiGraph
	)
	err := r.decode(body, &req, func() (err error) { dg, err = req.Graph.DiGraph(); return err })
	if err != nil {
		return err
	}
	if err := r.encode(raw, &resp); err != nil {
		return err
	}
	return r.do(core.Request{Op: core.OpMaxFlow, DiGraph: dg, Args: core.Args{Source: req.Source, Sink: req.Sink}})
}

func (r *replayer) mincost(body, raw []byte) error {
	var (
		req  serve.MinCostFlowRequest
		resp serve.MinCostFlowResponse
		dg   *graph.DiGraph
	)
	err := r.decode(body, &req, func() (err error) { dg, err = req.Graph.DiGraph(); return err })
	if err != nil {
		return err
	}
	if err := r.encode(raw, &resp); err != nil {
		return err
	}
	return r.do(core.Request{Op: core.OpMinCostFlow, DiGraph: dg, Args: core.Args{Sigma: req.Sigma}})
}

func (r *replayer) do(req core.Request) error {
	req.Run = r.run
	return r.timed(func() error { _, err := core.Do(req); return err })
}
