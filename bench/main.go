// Command bench is the repository's end-to-end benchmark. It hosts the
// lapccd daemon (serve.New on a loopback http.Server, wired as cmd/lapccd
// wires it) in-process, drives it from a closed-loop HTTP client over at
// most two connections with request bodies generated from --seed, checks
// every answer against an exact oracle, and prints an info line and a JSON
// result line:
//
//	bash bench/run.sh --workload solve-pooled --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that wraps the handler and transport boundaries and reports the
// per-layer split. See bench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"lapcc/internal/core"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: solve-pooled, mixed-cold, flow-local or flow-tcp")
	seed := fs.Int64("seed", 1, "seed the request bodies are generated from")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: need --seconds >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	cfg := config{
		workload: *name, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, setups: 3, floor: minCompleted, prefix: roundsPrefix, replay: replayN,
	}
	h := hostInfo()
	if h.GOMAXPROCS < 2 {
		fmt.Fprintf(stderr, "bench: warning: GOMAXPROCS=%d; mixed-cold's two clients cannot run in parallel\n", h.GOMAXPROCS)
	}
	inf, rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	inf.Host = h
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(inf); err != nil {
		return 1
	}
	if err := enc.Encode(rep); err != nil {
		return 1
	}
	if !rep.Correct || rep.Failed > 0 {
		fmt.Fprintf(stderr, "bench: %d of %d requests failed or answered wrong\n", rep.Failed, rep.Attempted)
		return 1
	}
	return 0
}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	setups   int // end-to-end run: set-ups timed, median reported
	floor    int // fewest successful window requests accepted
	prefix   int // leading window requests the round digest covers
	replay   int // leading schedule entries the traced run replays
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is the line before the result: where and on what it was measured,
// and how many samples stand behind each timing.
type info struct {
	Workload         string         `json:"workload"`
	Seed             int64          `json:"seed"`
	Traced           bool           `json:"traced"`
	Host             host           `json:"host"`
	Samples          map[string]int `json:"samples"`
	RoundsDigest     string         `json:"rounds_digest"`
	RoundsPerRequest float64        `json:"rounds_per_request"`
	// HostFactor is the window's mean calibration factor and Raw the
	// end-to-end metrics before calibration (end-to-end run only).
	HostFactor float64            `json:"host_factor,omitempty"`
	Raw        map[string]float64 `json:"raw,omitempty"`
}

// window is one measured closed-loop window.
type window struct {
	samples []sample
	elapsed time.Duration
	cpu     time.Duration
}

func (w window) completed() []sample {
	var ok []sample
	for _, s := range w.samples {
		if s.ok() {
			ok = append(ok, s)
		}
	}
	return ok
}

func (w window) throughput() float64 { return float64(len(w.completed())) / w.elapsed.Seconds() }

// outcomes tallies the window for the result line: requests attempted,
// failed or answered wrong, and whether every answer checked out.
func (w window) outcomes() (attempted, failed int, correct bool) {
	correct = true
	for _, s := range w.samples {
		if !s.ok() {
			failed++
		}
		if s.wrong {
			correct = false
		}
	}
	return len(w.samples), failed, correct
}

// measure runs the schedule from index first for dur.
func measure(d *daemon, c *clientSet, p *plan, first int, dur time.Duration) window {
	cpu0 := cpuTime()
	samples, elapsed := drive(c.http, d.url, p, c.n, first, -1, p.at, time.Now().Add(dur), true)
	return window{samples: samples, elapsed: elapsed, cpu: cpuTime() - cpu0}
}

// merge appends another slice of the same window.
func (w *window) merge(o window) {
	w.samples = append(w.samples, o.samples...)
	w.elapsed += o.elapsed
	w.cpu += o.cpu
}

func run(cfg config) (info, report, error) {
	inf := info{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced, Samples: map[string]int{}}
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return inf, report{}, err
	}
	// Bodies and oracle answers are computed before any set-up is timed.
	p, err := w.generate(cfg.seed)
	if err != nil {
		return inf, report{}, fmt.Errorf("generate %s: %w", w.name, err)
	}
	c := &clientSet{http: newClient(w.clients), n: w.clients}
	defer c.http.CloseIdleConnections()
	if cfg.traced {
		return tracedRun(cfg, w, p, c, inf)
	}
	return endToEnd(cfg, w, p, c, inf)
}

// clientSet is the benchmark's HTTP client and its closed-loop width.
type clientSet struct {
	http *http.Client
	n    int
}

// setUp opens the backend, starts the daemon and runs the warm-up pass.
func setUp(w workload, p *plan, c *clientSet, b *backend, wrap *probes) (*daemon, error) {
	if b.t == nil && w.transport != "local" {
		var err error
		if *b, err = openBackend(w.transport); err != nil {
			return nil, err
		}
	}
	d, err := startDaemon(*b, wrap)
	if err != nil {
		return nil, err
	}
	if err := warmUp(c.http, d.url, p, c.n); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func endToEnd(cfg config, w workload, p *plan, c *clientSet, inf info) (info, report, error) {
	var (
		d           *daemon
		b           backend
		setups, raw []float64
	)
	teardown := func() {
		if d != nil {
			d.stop()
			d = nil
			c.http.CloseIdleConnections()
		}
		b.close()
		b = backend{}
	}
	defer teardown()
	for k := 0; k < cfg.setups; k++ {
		teardown()
		f := hostFactor()
		t0 := time.Now()
		var err error
		if d, err = setUp(w, p, c, &b, nil); err != nil {
			return inf, report{}, fmt.Errorf("set-up: %w", err)
		}
		s := time.Since(t0).Seconds()
		raw = append(raw, s)
		setups = append(setups, s*f)
	}

	// The window runs in one-second slices with a calibration before each
	// and after the last; a slice's times scale by the mean of the two
	// calibrations around it.
	slices := int(cfg.window / time.Second)
	if slices < 1 {
		slices = 1
	}
	var (
		win                 window
		lats, rawLats       []float64
		calTime, calCPU, fs float64
	)
	rss := startRSS()
	before := hostFactor()
	for k := 0; k < slices; k++ {
		sl := measure(d, c, p, len(win.samples), cfg.window/time.Duration(slices))
		after := hostFactor()
		f := (before + after) / 2
		before = after
		for _, s := range sl.samples {
			if s.ok() {
				lats = append(lats, ms(s.lat)*f)
				rawLats = append(rawLats, ms(s.lat))
			}
		}
		calTime += sl.elapsed.Seconds() * f
		calCPU += ms(sl.cpu) * f
		fs += f
		win.merge(sl)
	}
	mem := rss.stopped()
	attempted, failed, correct := win.outcomes()
	n := len(lats)
	if err := checkCompleted(n, cfg.floor); err != nil {
		return inf, report{}, err
	}
	sort.Float64s(lats)
	sort.Float64s(rawLats)
	hwm, err := peakRSSMB()
	if err != nil {
		return inf, report{}, err
	}
	if inf.RoundsDigest, inf.RoundsPerRequest, err = roundsDigest(win.samples, cfg.prefix); err != nil {
		return inf, report{}, err
	}
	inf.HostFactor = fs / float64(slices)
	inf.Raw = map[string]float64{
		"throughput_rps":     win.throughput(),
		"latency_p50_ms":     nearestRank(rawLats, 50),
		"latency_p95_ms":     nearestRank(rawLats, 95),
		"cpu_ms_per_request": ms(win.cpu) / float64(n),
		"setup_s":            median(raw),
		"vmhwm_mb":           hwm,
	}
	inf.Samples["latency"] = n
	inf.Samples["cpu"] = n
	inf.Samples["setup"] = len(setups)
	inf.Samples["rss"] = len(mem)
	inf.Samples["calibration"] = slices + 1 + len(setups)
	return inf, report{
		Correct: correct, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{
			"throughput_rps":     {float64(n) / calTime, "1/s"},
			"latency_p50_ms":     {nearestRank(lats, 50), "ms"},
			"latency_p95_ms":     {nearestRank(lats, 95), "ms"},
			"cpu_ms_per_request": {calCPU / float64(n), "ms"},
			"setup_s":            {median(setups), "s"},
			"rss_p90_mb":         {nearestRank(mem, 90), "MB"},
		},
	}, nil
}

// traceSlices is how many slices the traced run's window alternates over,
// untraced first. Alternating every second or so keeps drift in host speed
// out of the traced/untraced comparison.
const traceSlices = 20

// tracedRun serves from one daemon whose handler and transport are wrapped
// in probes, switching the probes on for every other slice of the window:
// the traced slices give the per-layer metrics, the untraced ones the
// throughput the trace overhead is judged against. It then replays the
// first cfg.replay schedule entries: each is sent once more with the
// probes on and, straight after, re-run through the public compute calls,
// so the two timings of a request see the same host state.
func tracedRun(cfg config, w workload, p *plan, c *clientSet, inf info) (info, report, error) {
	var b backend
	defer func() { b.close() }()
	pr := newProbes()
	d, err := setUp(w, p, c, &b, pr)
	if err != nil {
		return inf, report{}, fmt.Errorf("set-up: %w", err)
	}
	defer d.stop()

	var (
		all, plain, traced window
		counted            tally
	)
	for k := 0; k < traceSlices; k++ {
		on := k%2 == 1
		var before counters
		if on {
			if before, err = readCounters(c.http, d, b, pr); err != nil {
				return inf, report{}, err
			}
		}
		pr.on.Store(on)
		slice := measure(d, c, p, len(all.samples), cfg.window/traceSlices)
		pr.on.Store(false)
		all.merge(slice)
		if !on {
			plain.merge(slice)
			continue
		}
		after, err := readCounters(c.http, d, b, pr)
		if err != nil {
			return inf, report{}, err
		}
		counted.add(before, after)
		traced.merge(slice)
	}
	handlerTotal, handlerN := pr.handler.window()

	rp := newReplayer(core.RunOptions{Metrics: d.reg, Transport: b.t})
	var resent window
	pr.on.Store(true)
	for i := 0; i < cfg.replay; i++ {
		idx := -1 - i // outside the window's index range
		s := send(c.http, d.url, p, idx, p.at(i), true, true)
		resent.samples = append(resent.samples, s)
		if !s.ok() {
			return inf, report{}, fmt.Errorf("replay request %d: %w", i, s.err)
		}
		h, ok := pr.handler.timing(idx)
		if !ok {
			return inf, report{}, fmt.Errorf("replay request %d: no handler timing", i)
		}
		if err := rp.replay(p.instances[s.inst], s, h); err != nil {
			return inf, report{}, err
		}
	}
	pr.on.Store(false)

	if inf.RoundsDigest, inf.RoundsPerRequest, err = roundsDigest(all.samples, cfg.prefix); err != nil {
		return inf, report{}, err
	}
	all.merge(resent)
	attempted, failed, correct := all.outcomes()
	inf.Samples["traced"] = len(traced.completed())
	inf.Samples["untraced"] = len(plain.completed())
	inf.Samples["handler"] = handlerN
	inf.Samples["replay"] = rp.res.n
	return inf, report{
		Correct: correct, Attempted: attempted, Failed: failed,
		Metrics: layerMetrics(layerInput{
			traced: traced, counted: counted,
			handlerTotal: handlerTotal, handlerN: handlerN,
			replay: rp.res, plainRPS: plain.throughput(), roundsPerReq: inf.RoundsPerRequest,
		}),
	}, nil
}

// roundsPrefix is how many leading window requests the exact round figures
// cover: a fixed prefix, so they do not depend on how many requests a
// window completes.
const roundsPrefix = 100

// roundsDigest hashes schedule index -> rounds.total over the first prefix
// window requests and returns it with their mean rounds. A request's rounds
// depend only on its body and on whether it hit the pool, and every
// workload fixes the pool outcome, so the digest repeats exactly, also under
// mixed-cold's two interleaved clients.
func roundsDigest(samples []sample, prefix int) (string, float64, error) {
	if len(samples) < prefix {
		return "", 0, fmt.Errorf("%w: %d window requests, need %d for the round digest", errTooFew, len(samples), prefix)
	}
	h := fnv.New64a()
	var total int64
	for _, s := range samples[:prefix] {
		if !s.ok() {
			return "", 0, fmt.Errorf("round digest: request %d did not complete", s.idx)
		}
		total += s.out.rounds
		fmt.Fprintf(h, "%d:%d;", s.idx, s.out.rounds)
	}
	return fmt.Sprintf("%016x", h.Sum64()), float64(total) / float64(prefix), nil
}
