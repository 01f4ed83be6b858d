package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lapcc/internal/cc"
	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/sparsify"
	"lapcc/internal/trace"
)

// DefaultEps is the solve precision used when a request carries none.
const DefaultEps = 1e-8

// Options configures a Server. The zero value serves with the documented
// defaults.
type Options struct {
	// PoolSize bounds each session pool (solve sessions and sparsify
	// chains separately) with LRU eviction. Default 8.
	PoolSize int
	// MaxInflight bounds concurrently admitted requests; excess load is
	// shed with a typed 429 ("overloaded") instead of queueing. Default
	// 2*GOMAXPROCS.
	MaxInflight int
	// Metrics, if non-nil, receives the serving-layer instruments
	// (request/shed/pool counters, per-op latency histograms) plus the
	// solver-stack instruments of every run, and is exposed on the
	// daemon's /metrics endpoints.
	Metrics *metrics.Registry
	// AccessLog, if non-nil, receives one JSON object per completed
	// request (see accessRecord): timestamp, request ID, op, status,
	// error code, and latency. lapccd -access-log points it at stderr.
	AccessLog io.Writer
	// TraceRing bounds how many recent traced requests /v1/trace/{id} can
	// serve. Default DefaultTraceRing.
	TraceRing int
	// Flight, if non-nil, is the daemon's transport flight recorder,
	// exposed read-only on /debug/flight.
	Flight *trace.Flight
	// Transport, if non-nil, physically carries every solver run through
	// the given delivery backend (core.RunOptions.Transport). The backend
	// serializes one barrier at a time, so New clamps MaxInflight to 1
	// when a transport is set — requests queue at the admission gate
	// instead of interleaving barriers.
	Transport cc.Transport
	// TransportStats, if non-nil, snapshots the transport backend's
	// recovery and chaos counters for /v1/stats and the
	// lapcc_transport_* gauges. lapccd wires it to the TCP coordinator's
	// Recovery()/Epoch() and the process chaos counters.
	TransportStats func() TransportStats
}

// Server implements the solver-as-a-service HTTP surface. Construct with
// New and mount Handler on an http.Server (or httptest.Server).
type Server struct {
	opts     Options
	inflight chan struct{}
	solve    *sessionPool
	sparse   *sessionPool
	reg      *metrics.Registry

	requests   atomic.Int64
	shed       atomic.Int64
	poolHits   atomic.Int64
	poolMisses atomic.Int64
	panics     atomic.Int64

	// seq numbers requests within this daemon; the access log, the
	// X-Lapcc-Request-Id header, and error envelopes all carry the
	// resulting deterministic ID (see reqCtx).
	seq    atomic.Int64
	traces *traceRing
	logMu  sync.Mutex

	// hold, when non-nil, blocks every admitted request until the channel
	// is closed. Test hook for deterministically filling the inflight
	// slots; never set in production.
	hold chan struct{}
	// failpoint, when non-nil, runs after admission with the request's op.
	// Test hook for driving the panic-recovery path; never set in
	// production.
	failpoint func(op string)
}

// New returns a Server with the given options.
func New(opts Options) *Server {
	if opts.PoolSize <= 0 {
		opts.PoolSize = 8
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if opts.Transport != nil {
		// A delivery backend runs one barrier at a time; concurrent runs
		// over it would interleave. Queue at the admission gate instead.
		opts.MaxInflight = 1
	}
	return &Server{
		opts:     opts,
		inflight: make(chan struct{}, opts.MaxInflight),
		solve:    newSessionPool(opts.PoolSize),
		sparse:   newSessionPool(opts.PoolSize),
		reg:      opts.Metrics,
		traces:   newTraceRing(opts.TraceRing),
	}
}

// Stats is the /v1/stats body: serving-layer counters for tests and
// operators. Pool hits count requests that found a built session for their
// exact topology; every hit skips the Theorem 3.3 preprocessing.
type Stats struct {
	Requests       int64 `json:"requests"`
	Shed           int64 `json:"shed"`
	PoolHits       int64 `json:"pool_hits"`
	PoolMisses     int64 `json:"pool_misses"`
	Panics         int64 `json:"panics"`
	SolveSessions  int   `json:"solve_sessions"`
	SparsifyChains int   `json:"sparsify_chains"`
	MaxInflight    int   `json:"max_inflight"`
	TracedRequests int   `json:"traced_requests"`
	// Transport reports the delivery backend's recovery and chaos
	// counters when the daemon runs over one (Options.TransportStats).
	Transport *TransportStats `json:"transport,omitempty"`
}

// TransportStats snapshots a delivery backend's supervision and chaos
// counters for /v1/stats: mesh incarnations, executed kills and respawns,
// replayed barriers, and the socket-level faults the chaos plan injected
// in this process. Mirrored onto the lapcc_transport_* gauges at every
// Stats call.
type TransportStats struct {
	Epoch             uint64 `json:"epoch"`
	Kills             uint64 `json:"kills"`
	Restarts          uint64 `json:"restarts"`
	Respawns          uint64 `json:"respawns"`
	ReplayedBarriers  uint64 `json:"replayed_barriers"`
	HeartbeatFailures uint64 `json:"heartbeat_failures"`
	ChaosResets       uint64 `json:"chaos_resets"`
	ChaosPartials     uint64 `json:"chaos_partials"`
	ChaosStalls       uint64 `json:"chaos_stalls"`
}

// Stats returns a snapshot of the serving counters, refreshing the
// lapcc_transport_* gauges as a side effect when a transport is wired.
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:       s.requests.Load(),
		Shed:           s.shed.Load(),
		PoolHits:       s.poolHits.Load(),
		PoolMisses:     s.poolMisses.Load(),
		Panics:         s.panics.Load(),
		SolveSessions:  s.solve.size(),
		SparsifyChains: s.sparse.size(),
		MaxInflight:    s.opts.MaxInflight,
		TracedRequests: s.traces.size(),
	}
	if s.opts.TransportStats != nil {
		ts := s.opts.TransportStats()
		st.Transport = &ts
		set := func(name, help string, v uint64) {
			s.reg.Gauge(name, help).Set(int64(v))
		}
		set("lapcc_transport_epoch", "Mesh incarnation of the daemon's transport backend.", ts.Epoch)
		set("lapcc_transport_kills", "Scheduled chaos kills executed by the supervisor.", ts.Kills)
		set("lapcc_transport_restarts", "Full mesh restarts.", ts.Restarts)
		set("lapcc_transport_respawns", "Workers spawned beyond the initial boot.", ts.Respawns)
		set("lapcc_transport_replayed_barriers", "Barrier replay attempts after failed deliveries.", ts.ReplayedBarriers)
		set("lapcc_transport_heartbeat_failures", "Liveness probes that found a dead mesh.", ts.HeartbeatFailures)
		set("lapcc_transport_chaos_resets", "Chaos-injected connection resets in this process.", ts.ChaosResets)
		set("lapcc_transport_chaos_partials", "Chaos-fragmented frame writes in this process.", ts.ChaosPartials)
		set("lapcc_transport_chaos_stalls", "Chaos-stalled frame writes in this process.", ts.ChaosStalls)
	}
	return st
}

// Handler returns the daemon's mux:
//
//	POST /v1/solve        SolveRequest  -> SolveResponse
//	POST /v1/sparsify     SparsifyRequest -> SparsifyResponse
//	POST /v1/orient       OrientRequest -> OrientResponse
//	POST /v1/maxflow      MaxFlowRequest -> MaxFlowResponse
//	POST /v1/mincostflow  MinCostFlowRequest -> MinCostFlowResponse
//	GET  /v1/stats        serving counters
//	GET  /v1/trace/{id}   JSONL trace stream of a recent traced request
//	GET  /debug/flight    transport flight-recorder dump (404 when unwired)
//	GET  /healthz         liveness
//
// Any solve-family request may ask to run under a per-request tracer with
// ?trace=1 or the X-Lapcc-Trace header; the response then carries a span
// summary and the full JSONL stream is retained for /v1/trace/{id}.
//
// With a metrics registry, /metrics, /metrics.json, and /debug/pprof/ are
// mounted from the shared debug handler (internal/metrics).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.admit("solve", s.handleSolve))
	mux.HandleFunc("/v1/sparsify", s.admit("sparsify", s.handleSparsify))
	mux.HandleFunc("/v1/orient", s.admit("orient", s.handleOrient))
	mux.HandleFunc("/v1/maxflow", s.admit("maxflow", s.handleMaxFlow))
	mux.HandleFunc("/v1/mincostflow", s.admit("mincostflow", s.handleMinCostFlow))
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("/v1/trace/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
		b, ok := s.traces.get(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, errorEnvelope{Error: WireError{
				Code: "not_found", Message: "no retained trace for id", RequestID: id,
			}})
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b)
	})
	mux.Handle("/debug/flight", s.opts.Flight.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if s.reg != nil {
		dbg := metrics.Handler(s.reg)
		scrape := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.Stats() // refresh the lapcc_transport_* gauges before the scrape
			dbg.ServeHTTP(w, r)
		})
		mux.Handle("/metrics", scrape)
		mux.Handle("/metrics.json", scrape)
		mux.Handle("/debug/pprof/", dbg)
	}
	return mux
}

// opHandler is an op handler running under a per-request context: the
// deterministic request ID, the optional tracer, and the outcome fields
// the access log reports.
type opHandler func(http.ResponseWriter, *http.Request, *reqCtx)

// admit wraps an op handler with the admission layer: request-ID
// assignment, method check, load shedding at MaxInflight, per-op
// request/latency instruments, and the access-log line on the way out.
func (s *Server) admit(op string, fn opHandler) http.HandlerFunc {
	var (
		reqs = s.reg.Counter("lapcc_serve_requests_total", "Admitted requests by op.", "op", op)
		lat  = s.reg.Histogram("lapcc_serve_latency_ns", "Request latency by op.", "op", op)
	)
	return func(w http.ResponseWriter, r *http.Request) {
		rc := s.newReqCtx(op, r)
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set(RequestIDHeader, rc.id)
		tStart := time.Now()
		defer func() {
			rc.status = sw.status
			s.logAccess(rc, time.Since(tStart))
		}()
		if r.Method != http.MethodPost {
			s.error(sw, rc, http.StatusMethodNotAllowed, "bad_request", "POST required", 0)
			return
		}
		select {
		case s.inflight <- struct{}{}:
		default:
			s.shed.Add(1)
			s.reg.Counter("lapcc_serve_shed_total", "Requests shed at the admission gate.").Inc()
			s.error(sw, rc, http.StatusTooManyRequests, "overloaded",
				fmt.Sprintf("all %d slots busy", s.opts.MaxInflight), 0)
			return
		}
		defer func() { <-s.inflight }()
		if s.hold != nil {
			<-s.hold
		}
		s.requests.Add(1)
		reqs.Inc()
		t0 := time.Now()
		// Per-request panic recovery: a handler bug must cost one 500 in
		// the error envelope, not the daemon. http.ErrAbortHandler keeps
		// its net/http meaning (abort the connection, no response).
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.panics.Add(1)
				s.reg.Counter("lapcc_serve_errors_total", "Request failures by code.", "code", "panic").Inc()
				s.error(sw, rc, http.StatusInternalServerError, "internal",
					fmt.Sprintf("%s: recovered panic: %v", op, rec), 0)
			}
			lat.ObserveDuration(time.Since(t0))
		}()
		if s.failpoint != nil {
			s.failpoint(op)
		}
		fn(sw, r, rc)
	}
}

// logAccess emits the request's access-log line (one JSON object) when
// Options.AccessLog is set; writes are serialized so concurrent requests
// never interleave bytes within a line.
func (s *Server) logAccess(rc *reqCtx, d time.Duration) {
	if s.opts.AccessLog == nil {
		return
	}
	line, err := json.Marshal(accessRecord{
		T: nowRFC3339(), ID: rc.id, Op: rc.op,
		Status: rc.status, Code: rc.code, Traced: rc.traced,
		MS: float64(d.Microseconds()) / 1e3,
	})
	if err != nil {
		return
	}
	s.logMu.Lock()
	_, _ = s.opts.AccessLog.Write(append(line, '\n'))
	s.logMu.Unlock()
}

func (s *Server) run(budget *rounds.Budget, tr *trace.Tracer) core.RunOptions {
	return core.RunOptions{
		Trace: tr, Transport: s.opts.Transport,
		Budget: budget, Metrics: s.reg,
	}
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request, rc *reqCtx) {
	var req SolveRequest
	if !s.decode(w, r, rc, &req) {
		return
	}
	g, err := req.Graph.Graph()
	if err != nil {
		s.error(w, rc, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	rc.bind(w, g.Fingerprint())
	if len(req.RHS) == 0 {
		s.error(w, rc, http.StatusBadRequest, "bad_request", "rhs: need at least one right-hand side", 0)
		return
	}
	for i, b := range req.RHS {
		if len(b) != g.N() {
			s.error(w, rc, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("rhs[%d]: %d entries for n=%d", i, len(b), g.N()), 0)
			return
		}
	}
	eps := req.Eps
	if eps == 0 {
		eps = DefaultEps
	}
	budget, err := req.Budget.Budget()
	if err != nil {
		s.error(w, rc, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}

	// A traced request bypasses the pool: a fresh session is the exact code
	// path a pooled miss takes, so the answer stays bit-identical to the
	// untraced run while the per-request tracer observes every phase.
	var sess *core.LaplacianSession
	var before core.RoundReport
	cached := false
	if rc.traced {
		if sess, err = newSession(g, s.run(budget, rc.tr)); err != nil {
			s.fail(w, rc, err)
			return
		}
		s.poolHit(false)
	} else {
		e, _ := s.solve.acquire(g.Fingerprint())
		e.mu.Lock()
		defer e.mu.Unlock()
		cached = e.built(g)
		if cached {
			s.poolHit(true)
			before = e.sess.Rounds()
			e.sess.SetBudget(budget)
			if err := e.sess.Reweight(g.Weights()); err != nil {
				e.sess.SetBudget(nil)
				s.fail(w, rc, err)
				return
			}
		} else {
			s.poolHit(false)
			fresh, err := newSession(g, s.run(budget, nil))
			if err != nil {
				s.fail(w, rc, err)
				return
			}
			e.sess, e.chain, e.led, e.guard = fresh, nil, nil, g
			e.builds++
		}
		defer e.sess.SetBudget(nil)
		sess = e.sess
	}

	resp := SolveResponse{Cached: cached}
	if !s.solveLanes(w, rc, sess, req.RHS, eps, &resp) {
		return
	}
	after := sess.Rounds()
	resp.Rounds = WireRounds{
		Total:    after.Total - before.Total,
		Measured: after.Measured - before.Measured,
		Charged:  after.Charged - before.Charged,
	}
	resp.Trace = s.finishTrace(rc)
	writeJSON(w, http.StatusOK, resp)
}

// newSession builds the solve op's session for g on run (Server.run), the
// one constructor of a pooled miss and a traced request. Sessions run cold
// (no warm start) with exact-only chain reuse, so every response is
// bit-identical to a direct one-shot facade call — see the package comment.
func newSession(g *graph.Graph, run core.RunOptions) (*core.LaplacianSession, error) {
	return core.NewLaplacianSession(g, core.SessionOptions{Run: run, ExactReuse: true})
}

// solveLanes solves a request's right-hand sides with one SolveLanes call
// into resp, or writes the error response and reports false.
func (s *Server) solveLanes(w http.ResponseWriter, rc *reqCtx, sess *core.LaplacianSession, rhs [][]float64, eps float64, resp *SolveResponse) bool {
	bs := make([]linalg.Vec, len(rhs))
	for i, b := range rhs {
		bs[i] = b
	}
	res, err := sess.SolveLanes(bs, eps)
	if err != nil {
		s.fail(w, rc, err)
		return false
	}
	for _, r := range res {
		resp.X = append(resp.X, r.X)
		resp.Iterations = append(resp.Iterations, r.Iterations)
		resp.SparsifierEdges = r.SparsifierEdges
	}
	return true
}

func (s *Server) handleSparsify(w http.ResponseWriter, r *http.Request, rc *reqCtx) {
	var req SparsifyRequest
	if !s.decode(w, r, rc, &req) {
		return
	}
	g, err := req.Graph.Graph()
	if err != nil {
		s.error(w, rc, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	rc.bind(w, g.Fingerprint())
	budget, err := req.Budget.Budget()
	if err != nil {
		s.error(w, rc, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}

	// As with solve: a traced request builds a fresh chain, exactly the
	// pooled miss path, so tracing never perturbs the response bytes.
	var chain *sparsify.Chain
	var snap rounds.Snapshot
	cached := false
	if rc.traced {
		led := rounds.New()
		snap = rounds.Snap(led)
		if chain, err = newChain(g, led, s.run(budget, rc.tr)); err != nil {
			s.fail(w, rc, err)
			return
		}
		s.poolHit(false)
	} else {
		e, _ := s.sparse.acquire(g.Fingerprint())
		e.mu.Lock()
		defer e.mu.Unlock()
		cached = e.built(g)
		if cached {
			s.poolHit(true)
			snap = rounds.Snap(e.led)
			e.chain.SetBudget(budget)
			if _, err := e.chain.Reweight(g.Weights()); err != nil {
				e.chain.SetBudget(nil)
				s.fail(w, rc, err)
				return
			}
		} else {
			s.poolHit(false)
			led := rounds.New()
			snap = rounds.Snap(led)
			fresh, err := newChain(g, led, s.run(budget, nil))
			if err != nil {
				s.fail(w, rc, err)
				return
			}
			e.chain, e.led, e.sess, e.guard = fresh, led, nil, g
			e.builds++
		}
		defer e.chain.SetBudget(nil)
		chain = e.chain
	}

	alpha := 0.0
	if g.IsConnected() {
		alpha, err = sparsify.MeasureAlpha(g, chain.H(), 150)
		if err != nil {
			s.fail(w, rc, err)
			return
		}
	}
	d := snap.Stats()
	writeJSON(w, http.StatusOK, SparsifyResponse{
		H:      ToWireGraph(chain.H()),
		Alpha:  alpha,
		Cached: cached,
		Rounds: WireRounds{Total: d.TotalRounds(), Measured: d.MeasuredRounds, Charged: d.ChargedRounds},
		Trace:  s.finishTrace(rc),
	})
}

// newChain builds the sparsify op's exact-only chain on a copy of g, its
// rounds on led and the rest of its run from run (Server.run: the daemon's
// transport included): the one constructor of a pooled miss and a traced
// request.
func newChain(g *graph.Graph, led *rounds.Ledger, run core.RunOptions) (*sparsify.Chain, error) {
	return sparsify.NewChain(g.Clone(), sparsify.ChainOptions{Sparsify: run.Env(led), ExactOnly: true})
}

func (s *Server) handleOrient(w http.ResponseWriter, r *http.Request, rc *reqCtx) {
	var req OrientRequest
	if !s.decode(w, r, rc, &req) {
		return
	}
	g, err := req.Graph.Graph()
	if err != nil {
		s.error(w, rc, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	rc.bind(w, g.Fingerprint())
	budget, err := req.Budget.Budget()
	if err != nil {
		s.error(w, rc, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	resp, err := core.Do(core.Request{Op: core.OpOrient, Graph: g, Run: s.run(budget, rc.tr)})
	if err != nil {
		s.fail(w, rc, err)
		return
	}
	writeJSON(w, http.StatusOK, OrientResponse{
		Orient:     resp.Eulerian.Orient,
		Iterations: resp.Eulerian.Iterations,
		Rounds:     toWireRounds(resp.Rounds),
		Trace:      s.finishTrace(rc),
	})
}

func (s *Server) handleMaxFlow(w http.ResponseWriter, r *http.Request, rc *reqCtx) {
	var req MaxFlowRequest
	if !s.decode(w, r, rc, &req) {
		return
	}
	dg, err := req.Graph.DiGraph()
	if err != nil {
		s.error(w, rc, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	rc.bind(w, dg.Fingerprint())
	budget, err := req.Budget.Budget()
	if err != nil {
		s.error(w, rc, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	resp, err := core.Do(core.Request{
		Op: core.OpMaxFlow, DiGraph: dg,
		Args: core.Args{Source: req.Source, Sink: req.Sink},
		Run:  s.run(budget, rc.tr),
	})
	if err != nil {
		s.fail(w, rc, err)
		return
	}
	writeJSON(w, http.StatusOK, MaxFlowResponse{
		Value:              resp.MaxFlow.Value,
		Flow:               resp.MaxFlow.Flow,
		IPMIterations:      resp.MaxFlow.IPMIterations,
		FinalAugmentations: resp.MaxFlow.FinalAugmentations,
		Rounds:             toWireRounds(resp.Rounds),
		Trace:              s.finishTrace(rc),
	})
}

func (s *Server) handleMinCostFlow(w http.ResponseWriter, r *http.Request, rc *reqCtx) {
	var req MinCostFlowRequest
	if !s.decode(w, r, rc, &req) {
		return
	}
	dg, err := req.Graph.DiGraph()
	if err != nil {
		s.error(w, rc, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	rc.bind(w, dg.Fingerprint())
	budget, err := req.Budget.Budget()
	if err != nil {
		s.error(w, rc, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	resp, err := core.Do(core.Request{
		Op: core.OpMinCostFlow, DiGraph: dg,
		Args: core.Args{Sigma: req.Sigma},
		Run:  s.run(budget, rc.tr),
	})
	if err != nil {
		s.fail(w, rc, err)
		return
	}
	writeJSON(w, http.StatusOK, MinCostFlowResponse{
		Flow:                resp.MinCostFlow.Flow,
		Cost:                resp.MinCostFlow.Cost,
		ProgressIterations:  resp.MinCostFlow.ProgressIterations,
		RepairAugmentations: resp.MinCostFlow.RepairAugmentations,
		Rounds:              toWireRounds(resp.Rounds),
		Trace:               s.finishTrace(rc),
	})
}

func (s *Server) poolHit(hit bool) {
	outcome := "miss"
	if hit {
		s.poolHits.Add(1)
		outcome = "hit"
	} else {
		s.poolMisses.Add(1)
	}
	s.reg.Counter("lapcc_serve_pool_total", "Session-pool lookups by outcome.", "outcome", outcome).Inc()
}

// fail maps a solver error onto the wire: budget exhaustion is a client-
// visible 429 carrying the partial rounds, request-shape problems are 400,
// everything else is 500.
func (s *Server) fail(w http.ResponseWriter, rc *reqCtx, err error) {
	var be *rounds.BudgetError
	switch {
	case errors.As(err, &be):
		s.reg.Counter("lapcc_serve_errors_total", "Request failures by code.", "code", "budget_exceeded").Inc()
		s.error(w, rc, http.StatusTooManyRequests, "budget_exceeded", err.Error(),
			be.Partial.MeasuredRounds+be.Partial.ChargedRounds)
	case errors.Is(err, core.ErrBadRequest):
		s.reg.Counter("lapcc_serve_errors_total", "Request failures by code.", "code", "bad_request").Inc()
		s.error(w, rc, http.StatusBadRequest, "bad_request", err.Error(), 0)
	default:
		s.reg.Counter("lapcc_serve_errors_total", "Request failures by code.", "code", "internal").Inc()
		s.error(w, rc, http.StatusInternalServerError, "internal", err.Error(), 0)
	}
}

func toWireRounds(r core.RoundReport) WireRounds {
	return WireRounds{Total: r.Total, Measured: r.Measured, Charged: r.Charged}
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, rc *reqCtx, dst any) bool {
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		s.error(w, rc, http.StatusBadRequest, "bad_request", "body: "+err.Error(), 0)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}

// error writes the request's error envelope: the typed code plus the
// request ID, so a failure joins to the access-log line and the client
// side (loadgen prints the ID for failed requests).
func (s *Server) error(w http.ResponseWriter, rc *reqCtx, status int, code, msg string, partialRounds int64) {
	rc.code = code
	writeJSON(w, status, errorEnvelope{Error: WireError{
		Code: code, Message: msg, Rounds: partialRounds, RequestID: rc.id,
	}})
}
