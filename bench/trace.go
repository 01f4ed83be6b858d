package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lapcc/internal/cc"
	"lapcc/internal/metrics"
	"lapcc/internal/serve"
)

// The traced run measures layers only at public boundaries and from
// counters the program already exports: a probe around the daemon's
// http.Handler, a probe around the cc.Transport handed to serve.Options,
// the metrics registry, /v1/stats, tcp.Transport.Stats and runtime.MemStats.

// probes are the traced run's two boundary wrappers. They record only
// while on; off, they call straight through.
type probes struct {
	on        atomic.Bool
	handler   handlerProbe
	transport transportProbe
}

func newProbes() *probes {
	pr := &probes{handler: handlerProbe{byIndex: map[int]time.Duration{}}}
	pr.handler.on = &pr.on
	pr.transport.on = &pr.on
	return pr
}

// handlerProbe times every window request (those carrying indexHeader)
// through the daemon's handler.
type handlerProbe struct {
	on      *atomic.Bool
	inner   http.Handler
	mu      sync.Mutex
	byIndex map[int]time.Duration
}

func (p *handlerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	idx, err := strconv.Atoi(r.Header.Get(indexHeader))
	if err != nil || !p.on.Load() {
		p.inner.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	p.inner.ServeHTTP(w, r)
	d := time.Since(t0)
	p.mu.Lock()
	p.byIndex[idx] = d
	p.mu.Unlock()
}

func (p *handlerProbe) timing(idx int) (time.Duration, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.byIndex[idx]
	return d, ok
}

// window sums the handler times of window requests (index >= 0).
func (p *handlerProbe) window() (total time.Duration, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for idx, d := range p.byIndex {
		if idx >= 0 {
			total += d
			n++
		}
	}
	return total, n
}

// transportProbe counts and times Deliver calls on the daemon's transport.
type transportProbe struct {
	on    *atomic.Bool
	inner cc.Transport
	calls atomic.Int64
	ns    atomic.Int64
}

func (p *transportProbe) Deliver(round, n int, out []cc.Outbox) ([][]cc.Message, cc.DeliveryStats, error) {
	if !p.on.Load() {
		return p.inner.Deliver(round, n, out)
	}
	t0 := time.Now()
	inb, st, err := p.inner.Deliver(round, n, out)
	p.ns.Add(int64(time.Since(t0)))
	p.calls.Add(1)
	return inb, st, err
}

func (p *transportProbe) Close() error { return p.inner.Close() }

// counters is one reading of every exported counter the traced run uses.
type counters struct {
	reg          map[string]int64 // counter values; histogram sums under name+"_sum"
	stats        serve.Stats
	mem          runtime.MemStats
	wire         cc.DeliveryStats
	deliverCalls int64
	deliverNs    int64
}

func readCounters(c *http.Client, d *daemon, b backend, pr *probes) (counters, error) {
	var k counters
	k.reg = registryValues(d.reg)
	resp, err := c.Get(d.url + "/v1/stats")
	if err != nil {
		return k, fmt.Errorf("read /v1/stats: %w", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&k.stats)
	resp.Body.Close()
	if err != nil {
		return k, fmt.Errorf("decode /v1/stats: %w", err)
	}
	runtime.ReadMemStats(&k.mem)
	if b.tcp != nil {
		k.wire = b.tcp.Stats()
	}
	k.deliverCalls, k.deliverNs = pr.transport.calls.Load(), pr.transport.ns.Load()
	return k, nil
}

// tally sums counter deltas over the traced slices of a window.
type tally struct {
	reg                     map[string]int64
	poolHits, poolMisses    int64
	shed                    int64
	allocBytes, gcCycles    uint64
	wire                    cc.DeliveryStats
	deliverCalls, deliverNs int64
}

func (t *tally) add(before, after counters) {
	if t.reg == nil {
		t.reg = map[string]int64{}
	}
	for k, v := range after.reg {
		t.reg[k] += v - before.reg[k]
	}
	t.poolHits += after.stats.PoolHits - before.stats.PoolHits
	t.poolMisses += after.stats.PoolMisses - before.stats.PoolMisses
	t.shed += after.stats.Shed - before.stats.Shed
	t.allocBytes += after.mem.TotalAlloc - before.mem.TotalAlloc
	t.gcCycles += uint64(after.mem.NumGC - before.mem.NumGC)
	t.wire.Frames += after.wire.Frames - before.wire.Frames
	t.wire.FrameBytes += after.wire.FrameBytes - before.wire.FrameBytes
	t.wire.Acks += after.wire.Acks - before.wire.Acks
	t.wire.Retransmits += after.wire.Retransmits - before.wire.Retransmits
	t.deliverCalls += after.deliverCalls - before.deliverCalls
	t.deliverNs += after.deliverNs - before.deliverNs
}

// registryValues flattens a registry snapshot: counters by name plus label
// rendering (name{k=v}), histogram sums by name+"_sum".
func registryValues(reg *metrics.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, s := range reg.Snapshot() {
		id := s.Name
		if len(s.Labels) > 0 {
			parts := make([]string, len(s.Labels))
			for i, l := range s.Labels {
				parts[i] = l.Key + "=" + l.Value
			}
			id += "{" + strings.Join(parts, ",") + "}"
		}
		switch s.Kind {
		case metrics.KindHistogram:
			out[id+"_sum"] = s.Sum
		default:
			out[id] = s.Value
		}
	}
	return out
}

// per divides, reading 0 when nothing was counted against.
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

func clamp0(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// split is the exclusive share of mean client latency spent in each layer.
type split struct {
	HTTP, Serve, Compute, CCStep, CCMerge, Transport float64
}

// splitLatency divides the mean client latency (all inputs in ms per
// request) into exclusive layer shares:
//
//	http      = client - handler        (loopback, net/http, client decode)
//	serve     = handler - core          (codec, admission, pool bookkeeping)
//	transport = deliver                 (time inside cc.Transport.Deliver)
//	cc_merge  = merge - deliver         (engine merge outside the transport)
//	cc_step   = step                    (engine compute phase)
//	compute   = core - step - cc_merge - transport (solver work outside cc)
//
// On a transport backend the engine's merge timer includes its Deliver
// calls, hence the subtraction. Each part is clamped at zero, so the shares
// sum to 1 exactly when no clamp fired.
func splitLatency(client, handler, core, step, merge, deliver float64) split {
	ccMerge := clamp0(merge - deliver)
	return split{
		HTTP:      per(clamp0(client-handler), client),
		Serve:     per(clamp0(handler-core), client),
		Compute:   per(clamp0(core-step-ccMerge-deliver), client),
		CCStep:    per(step, client),
		CCMerge:   per(ccMerge, client),
		Transport: per(deliver, client),
	}
}

// coverage is the share of the replayed requests' handler time that the
// replay accounts for: (decode + encode + core) / handler.
func coverage(r replayResult) float64 {
	return per(ms(r.decode+r.encode+r.core), ms(r.handler))
}

// layerInput is everything the traced run measured.
type layerInput struct {
	traced       window // the traced slices, merged
	counted      tally
	handlerTotal time.Duration // handler time of the traced window requests
	handlerN     int
	replay       replayResult
	plainRPS     float64 // throughput of the untraced slices
	roundsPerReq float64
}

// layerMetrics derives every per-layer metric. Means are per completed
// traced-window request unless the name says otherwise.
func layerMetrics(in layerInput) map[string]metric {
	ok := in.traced.completed()
	n := float64(len(ok))
	var latSum float64
	byOp := map[string]float64{}
	rhs := 0.0
	for _, s := range ok {
		latSum += ms(s.lat)
		byOp[s.op]++
		rhs += float64(s.rhs)
	}
	t := in.counted
	d := func(name string) float64 { return float64(t.reg[name]) }
	client := per(latSum, n)
	handlerMs := ms(in.handlerTotal)
	handler := per(handlerMs, float64(in.handlerN))
	r := in.replay
	rn := float64(r.n)
	coreMs := per(ms(r.core), rn)
	// The replayed requests are the schedule's first few, not the window's
	// mix, so the split applies their compute share of handler time to the
	// window's mean handler time.
	coreShare := handler * per(ms(r.core), ms(r.handler))
	step := per(d("lapcc_engine_step_duration_ns_sum")/1e6, n)
	merge := per(d("lapcc_engine_merge_duration_ns_sum")/1e6, n)
	calls := float64(t.deliverCalls)
	deliverMs := float64(t.deliverNs) / 1e6
	hits, misses := float64(t.poolHits), float64(t.poolMisses)
	sp := splitLatency(client, handler, coreShare, step, merge, per(deliverMs, n))

	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	set("core.rounds_per_request", "rounds", in.roundsPerReq)

	set("serve.handler_ms", "ms", handler)
	set("serve.http_ms", "ms", client-handler)
	set("serve.decode_ms", "ms", per(ms(r.decode), rn))
	set("serve.encode_ms", "ms", per(ms(r.encode), rn))
	set("serve.pool_hit_ratio", "ratio", per(hits, hits+misses))
	set("serve.shed_per_req", "count", per(float64(t.shed), n))

	set("core.ms", "ms", coreMs)
	set("core.allocs", "count", per(float64(r.mallocs), rn))
	set("core.alloc_kb", "kB", per(float64(r.allocBytes)/1024, rn))
	set("sparsify.build_ms", "ms", per(ms(r.build), rn))
	set("sparsify.reweight_ms", "ms", per(ms(r.reweight), rn))
	set("sparsify.alpha_ms", "ms", per(ms(r.alpha), rn))
	set("lapsolver.solve_ms_per_rhs", "ms", per(ms(r.solve), float64(r.rhs)))
	set("sparsify.builds_per_req", "count", per(d("lapcc_sparsify_builds_total"), n))
	set("lapsolver.cheby_iters_per_rhs", "count", per(d("lapcc_lapsolver_cheby_iterations_total"), rhs))
	set("lapsolver.escalations_per_rhs", "count", per(d("lapcc_lapsolver_escalations_total"), rhs))
	set("maxflow.ipm_iters_per_req", "count", per(d("lapcc_maxflow_ipm_iterations_total"), byOp["maxflow"]))
	set("mcmf.progress_iters_per_req", "count", per(d("lapcc_mcmf_progress_iterations_total"), byOp["mincostflow"]))
	set("euler.iterations_per_req", "count", per(d("lapcc_euler_iterations_total"), byOp["orient"]))

	set("linalg.apply_calls_per_req", "count", per(d("lapcc_linalg_kernel_calls_total{kernel=apply}"), n))
	set("linalg.dot_calls_per_req", "count", per(d("lapcc_linalg_kernel_calls_total{kernel=dot}"), n))
	set("linalg.axpy_calls_per_req", "count", per(d("lapcc_linalg_kernel_calls_total{kernel=axpy}"), n))
	set("linalg.dispatch_per_req", "count", per(d("lapcc_linalg_parallel_dispatch_total"), n))

	set("cc.engine_rounds_per_req", "count", per(d("lapcc_engine_rounds_total"), n))
	// Clique traffic: the serving path routes through the Lenzen primitives
	// and runs no engine program, but either may carry it.
	set("cc.messages_per_req", "count", per(d("lapcc_route_messages_total")+d("lapcc_engine_messages_total"), n))
	set("cc.words_per_req", "count", per(d("lapcc_route_words_total")+d("lapcc_engine_words_total"), n))
	set("cc.step_ms_per_req", "ms", step)
	set("cc.merge_ms_per_req", "ms", merge)
	set("cc.route_rounds_per_req", "count", per(d("lapcc_route_rounds_total"), n))

	set("transport.deliver_calls_per_req", "count", per(calls, n))
	set("transport.deliver_ms_per_req", "ms", per(deliverMs, n))
	set("transport.deliver_us_per_call", "us", per(deliverMs*1e3, calls))
	set("transport.frames_per_call", "count", per(float64(t.wire.Frames), calls))
	set("transport.frame_kb_per_call", "kB", per(float64(t.wire.FrameBytes)/1024, calls))
	set("transport.acks_per_call", "count", per(float64(t.wire.Acks), calls))
	set("transport.retransmits_per_req", "count", per(float64(t.wire.Retransmits), n))
	set("transport.share_of_handler", "ratio", per(deliverMs, handlerMs))

	set("runtime.alloc_kb_per_req", "kB", per(float64(t.allocBytes)/1024, n))
	set("runtime.gc_cycles_per_req", "count", per(float64(t.gcCycles), n))

	set("split.http", "ratio", sp.HTTP)
	set("split.serve", "ratio", sp.Serve)
	set("split.compute", "ratio", sp.Compute)
	set("split.cc_step", "ratio", sp.CCStep)
	set("split.cc_merge", "ratio", sp.CCMerge)
	set("split.transport", "ratio", sp.Transport)
	set("split.coverage", "ratio", coverage(r))
	set("bench.trace_overhead", "ratio", per(in.traced.throughput(), in.plainRPS))
	return m
}
