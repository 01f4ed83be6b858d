package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lapcc/internal/graph"
)

// LoadOptions configures a load-generation run against a serving daemon.
// The workload is deterministic per Seed: the same options produce the same
// request bodies in the same order, so recorded latency baselines compare
// like against like.
type LoadOptions struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Requests is the total request count across all ops (default 64).
	Requests int
	// Concurrency is the number of client workers (default 4).
	Concurrency int
	// Mix weights the operations; zero-weight ops are skipped. Default:
	// solve=6, sparsify=1, orient=1, maxflow=1, mincostflow=1 — the
	// solve-heavy profile the session pool is built for.
	Mix map[string]int
	// Topologies is the number of distinct solve/sparsify topologies the
	// workload cycles through (default 2). Fewer topologies than solve
	// requests means repeat topologies, exercising the pooled reweight
	// path.
	Topologies int
	// N is the vertex count of the generated graphs (default 48).
	N int
	// Seed drives every generated instance (default 1).
	Seed int64
	// Budget, if non-nil, rides on every request.
	Budget *WireBudget
	// ConnRetries bounds per-request retries of transport-level failures
	// (connection refused or reset — typically the daemon restarting
	// underneath the generator). Each retry backs off exponentially from
	// 10ms with deterministic jitter keyed on the request index, so
	// concurrent workers do not reconnect in lockstep yet replays stay
	// reproducible. 0 disables: a transport error immediately fails the
	// request.
	ConnRetries int
	// TraceSample, when positive, runs every TraceSample-th request of
	// the schedule (indices 0, TraceSample, 2*TraceSample, ...) with
	// ?trace=1, so the daemon returns a span summary and retains the
	// JSONL stream for /v1/trace/{id}. The per-op latency split of traced
	// vs untraced requests yields LoadResult.TraceOverhead. 0 disables.
	TraceSample int
}

func (o *LoadOptions) defaults() {
	if o.Requests <= 0 {
		o.Requests = 64
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 4
	}
	if o.Topologies <= 0 {
		o.Topologies = 2
	}
	if o.N <= 0 {
		o.N = 48
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Mix == nil {
		o.Mix = map[string]int{"solve": 6, "sparsify": 1, "orient": 1, "maxflow": 1, "mincostflow": 1}
	}
}

// OpStats aggregates the latencies of one op across a run.
type OpStats struct {
	Count  int           `json:"count"`
	Errors int           `json:"errors"`
	P50    time.Duration `json:"p50_ns"`
	P99    time.Duration `json:"p99_ns"`
	Mean   time.Duration `json:"mean_ns"`
}

// RequestFailure identifies one failed request of a run: the schedule
// index, the daemon-assigned request ID (joinable to the daemon's
// access-log lines and /v1/trace/{id}), and the typed error. The ID is
// empty when the failure never reached the daemon (transport error).
type RequestFailure struct {
	Op     string `json:"op"`
	Index  int    `json:"index"`
	ID     string `json:"id,omitempty"`
	Status int    `json:"status,omitempty"`
	Code   string `json:"code,omitempty"`
}

// RequestRetry identifies one request that succeeded only after absorbing
// shed (429 "overloaded") or transport-level retries. ID is the request ID
// of the attempt that finally went through.
type RequestRetry struct {
	Op          string `json:"op"`
	Index       int    `json:"index"`
	ID          string `json:"id,omitempty"`
	Retries     int    `json:"retries,omitempty"`
	ConnRetries int    `json:"conn_retries,omitempty"`
}

// LoadResult is the outcome of RunLoad.
type LoadResult struct {
	PerOp    map[string]OpStats `json:"per_op"`
	Requests int                `json:"requests"`
	Errors   int                `json:"errors"`
	// Retries counts 429 "overloaded" responses absorbed by backoff — the
	// admission gate working as intended, not failures. Retried time counts
	// toward the request's latency (the client-observed figure).
	Retries int `json:"retries"`
	// ConnRetries counts transport-level failures absorbed by the
	// LoadOptions.ConnRetries backoff before the request went through.
	ConnRetries int           `json:"conn_retries"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	// NsPerRequest is the inverse throughput of the whole run: wall time
	// divided by completed requests — the figure BENCH_serve.json gates.
	NsPerRequest float64 `json:"ns_per_request"`
	// Failures lists every failed request with its daemon-assigned ID, in
	// schedule order; Retried likewise lists requests that needed retries.
	Failures []RequestFailure `json:"failures,omitempty"`
	Retried  []RequestRetry   `json:"retried,omitempty"`
	// Traced counts requests sent with ?trace=1 (LoadOptions.TraceSample).
	Traced int `json:"traced,omitempty"`
	// TraceOverhead is the mean-latency ratio of traced to untraced
	// requests, averaged over ops that saw both (informational — recorded
	// in BENCH_serve.json but never gated). 0 when nothing was traced.
	TraceOverhead float64 `json:"trace_overhead,omitempty"`
}

// workItem is one scheduled request.
type workItem struct {
	op   string
	body []byte
}

// solveWeights returns the deterministic per-edge weights of solve request
// r: all within [1.1, 1.9), i.e. one binary weight class, so repeat
// topologies stay on the chain's exact-reuse tier.
func solveWeights(m int, r int) []float64 {
	w := make([]float64, m)
	for i := range w {
		h := uint64(i)*2654435761 + uint64(r)*40503 + 17
		w[i] = 1.1 + 0.8*float64(h%1024)/1024
	}
	return w
}

// buildSchedule materializes the deterministic request sequence.
func buildSchedule(o *LoadOptions) ([]workItem, error) {
	ops := make([]string, 0, 8)
	for _, op := range []string{"solve", "sparsify", "orient", "maxflow", "mincostflow"} {
		for i := 0; i < o.Mix[op]; i++ {
			ops = append(ops, op)
		}
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("loadgen: empty op mix")
	}

	// Shared instances, generated once per topology slot.
	solveGraphs := make([]*graph.Graph, o.Topologies)
	for t := range solveGraphs {
		g, err := graph.RandomRegular(o.N, 6, o.Seed+int64(t))
		if err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		solveGraphs[t] = g
	}
	flowNet := graph.LayeredDAG(2, 4, 2, 4, o.Seed)
	unitNet := graph.LayeredDAG(2, 4, 2, 1, o.Seed+1)
	sigma := make([]int64, unitNet.N())
	sigma[0], sigma[unitNet.N()-1] = 1, -1

	items := make([]workItem, o.Requests)
	for r := 0; r < o.Requests; r++ {
		op := ops[r%len(ops)]
		var body any
		switch op {
		case "solve":
			g := solveGraphs[r%o.Topologies]
			wg := ToWireGraph(g)
			for i, w := range solveWeights(g.M(), r) {
				wg.Edges[i][2] = w
			}
			b := make([]float64, g.N())
			b[r%g.N()], b[(r+1)%g.N()] = 1, -1
			body = SolveRequest{Graph: &wg, RHS: [][]float64{b}, Eps: 1e-8, Budget: o.Budget}
		case "sparsify":
			g := solveGraphs[r%o.Topologies]
			wg := ToWireGraph(g)
			body = SparsifyRequest{Graph: &wg, Budget: o.Budget}
		case "orient":
			g := solveGraphs[r%o.Topologies]
			wg := ToWireGraph(g)
			body = OrientRequest{Graph: &wg, Budget: o.Budget}
		case "maxflow":
			wd := ToWireDiGraph(flowNet)
			body = MaxFlowRequest{Graph: &wd, Source: 0, Sink: flowNet.N() - 1, Budget: o.Budget}
		case "mincostflow":
			wd := ToWireDiGraph(unitNet)
			body = MinCostFlowRequest{Graph: &wd, Sigma: sigma, Budget: o.Budget}
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		items[r] = workItem{op: op, body: raw}
	}
	return items, nil
}

// RunLoad replays the deterministic mixed workload against the daemon at
// opts.BaseURL with opts.Concurrency client workers and aggregates per-op
// latency percentiles and run throughput.
func RunLoad(opts LoadOptions) (*LoadResult, error) {
	opts.defaults()
	items, err := buildSchedule(&opts)
	if err != nil {
		return nil, err
	}

	var (
		next        atomic.Int64
		mu          sync.Mutex
		latencies   = map[string][]time.Duration{}
		tracedLats  = map[string][]time.Duration{}
		errCounts   = map[string]int{}
		retries     int
		connRetries int
		tracedN     int
		failures    []RequestFailure
		retried     []RequestRetry
		wg          sync.WaitGroup
	)
	t0 := time.Now()
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				it := items[i]
				url := opts.BaseURL + "/v1/" + it.op
				traced := opts.TraceSample > 0 && i%opts.TraceSample == 0
				if traced {
					url += "?trace=1"
				}
				start := time.Now()
				pr := post(url, it.body, opts.ConnRetries, i)
				lat := time.Since(start)
				mu.Lock()
				if traced {
					tracedN++
					tracedLats[it.op] = append(tracedLats[it.op], lat)
				} else {
					latencies[it.op] = append(latencies[it.op], lat)
				}
				retries += pr.retries
				connRetries += pr.conn
				if !pr.ok {
					errCounts[it.op]++
					failures = append(failures, RequestFailure{
						Op: it.op, Index: i, ID: pr.id, Status: pr.status, Code: pr.code,
					})
				} else if pr.retries > 0 || pr.conn > 0 {
					retried = append(retried, RequestRetry{
						Op: it.op, Index: i, ID: pr.id, Retries: pr.retries, ConnRetries: pr.conn,
					})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)

	sort.Slice(failures, func(i, j int) bool { return failures[i].Index < failures[j].Index })
	sort.Slice(retried, func(i, j int) bool { return retried[i].Index < retried[j].Index })
	res := &LoadResult{
		PerOp: map[string]OpStats{}, Requests: len(items),
		Retries: retries, ConnRetries: connRetries, Elapsed: elapsed,
		Failures: failures, Retried: retried, Traced: tracedN,
	}
	res.TraceOverhead = traceOverhead(latencies, tracedLats)
	// Fold traced latencies back into the per-op stats after the overhead
	// split: percentiles describe the whole run.
	for op, lats := range tracedLats {
		latencies[op] = append(latencies[op], lats...)
	}
	for op, lats := range latencies {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		for _, l := range lats {
			sum += l
		}
		res.PerOp[op] = OpStats{
			Count:  len(lats),
			Errors: errCounts[op],
			P50:    quantile(lats, 0.50),
			P99:    quantile(lats, 0.99),
			Mean:   sum / time.Duration(len(lats)),
		}
		res.Errors += errCounts[op]
	}
	if res.Requests > 0 {
		res.NsPerRequest = float64(elapsed.Nanoseconds()) / float64(res.Requests)
	}
	return res, nil
}

// postResult is the outcome of one scheduled request: whether it finally
// succeeded, how many shed and transport retries it absorbed, and the
// daemon-assigned request ID, status, and error code of the last response
// (ID empty when no response ever arrived).
type postResult struct {
	ok            bool
	retries, conn int
	id            string
	status        int
	code          string
}

// post sends one request, absorbing 429 "overloaded" responses with
// bounded backoff: load shedding is the admission gate's contract, and a
// replay client's job is to wait for a slot, not to count it as a failure.
// Transport-level errors (connection refused or reset — the daemon
// restarting) are likewise absorbed up to connRetries times with
// exponential backoff. Budget-exceeded 429s (and everything else non-200)
// are real errors.
func post(url string, body []byte, connRetries, req int) (pr postResult) {
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			if pr.conn >= connRetries {
				return pr
			}
			pr.conn++
			time.Sleep(connBackoff(req, pr.conn))
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		pr.id = resp.Header.Get(RequestIDHeader)
		pr.status = resp.StatusCode
		if resp.StatusCode == http.StatusOK {
			pr.ok, pr.code = true, ""
			return pr
		}
		var env errorEnvelope
		if json.Unmarshal(data, &env) == nil {
			pr.code = env.Error.Code
			if env.Error.RequestID != "" {
				pr.id = env.Error.RequestID
			}
		}
		if resp.StatusCode == http.StatusTooManyRequests &&
			bytes.Contains(data, []byte(`"overloaded"`)) && attempt < 200 {
			pr.retries++
			time.Sleep(time.Duration(1+attempt%10) * time.Millisecond)
			continue
		}
		return pr
	}
}

// traceOverhead is the mean-latency ratio of traced to untraced requests,
// averaged over the ops that saw both kinds. Informational: with small
// samples under concurrency it carries queueing noise, like the per-op
// percentiles.
func traceOverhead(plain, traced map[string][]time.Duration) float64 {
	mean := func(lats []time.Duration) float64 {
		var sum time.Duration
		for _, l := range lats {
			sum += l
		}
		return float64(sum) / float64(len(lats))
	}
	var ratioSum float64
	var ops int
	for op, tl := range traced {
		pl := plain[op]
		if len(tl) == 0 || len(pl) == 0 {
			continue
		}
		if m := mean(pl); m > 0 {
			ratioSum += mean(tl) / m
			ops++
		}
	}
	if ops == 0 {
		return 0
	}
	return ratioSum / float64(ops)
}

// connBackoff is the sleep before transport-error retry attempt (1-based)
// of request req: exponential from 10ms, capped at 640ms, plus a
// deterministic sub-50% jitter keyed on (req, attempt). Deterministic
// jitter keeps replayed runs byte-comparable while still de-synchronizing
// the reconnect stampede of concurrent workers.
func connBackoff(req, attempt int) time.Duration {
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	base := 10 * time.Millisecond << uint(shift)
	h := uint64(req)*0x9e3779b97f4a7c15 + uint64(attempt)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return base + time.Duration(h%uint64(base/2))
}

// quantile returns the q-th latency of a sorted sample (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// NsMetrics flattens the result into a benchmark-name -> ns/op map: per-op
// p50 and p99 latencies plus the whole-run inverse throughput. Only the
// throughput entry is gated in BENCH_serve.json (per-op percentiles under
// concurrency are queueing-noise-dominated); the rest is for display and
// tests.
func (r *LoadResult) NsMetrics() map[string]float64 {
	out := map[string]float64{}
	for op, st := range r.PerOp {
		out["Serve/"+op+"@p50"] = float64(st.P50.Nanoseconds())
		out["Serve/"+op+"@p99"] = float64(st.P99.Nanoseconds())
	}
	out["Serve/throughput"] = r.NsPerRequest
	return out
}

// WaitReady polls baseURL/healthz until it answers 200 or the timeout
// elapses. cmd/loadgen uses it so `make serve-smoke` can start the daemon
// and the generator back to back.
func WaitReady(baseURL string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(baseURL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: %s not ready after %s", baseURL, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
