// Command lapsolve solves a Laplacian system L_G x = b with the
// deterministic congested-clique solver (Theorem 1.1) on a graph read from
// a file (or a built-in generator) and reports the solution poles and the
// round breakdown.
//
// Graph file format: one edge per line, "u v weight" (0-indexed vertices);
// lines starting with '#' are ignored. The right-hand side is the two-pole
// vector +1 at -source, -1 at -sink.
//
//	go run ./cmd/lapsolve -gen regular -n 256 -eps 1e-8
//	go run ./cmd/lapsolve -graph edges.txt -source 0 -sink 9
//	go run ./cmd/lapsolve -trace out.json   # load out.json in Perfetto
//	go run ./cmd/lapsolve -faults seed=1,drop=0.01   # 1% message drops
//	go run ./cmd/lapsolve -budget rounds=500         # hard round ceiling
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"lapcc/internal/cc"
	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/trace"
	"lapcc/internal/transport"
	"lapcc/internal/transport/tcp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lapsolve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		path          = flag.String("graph", "", "edge-list file (u v w per line)")
		gen           = flag.String("gen", "regular", "generator when no file given: regular|grid|complete")
		n             = flag.Int("n", 128, "generator size")
		eps           = flag.Float64("eps", 1e-8, "target relative error in the L_G norm")
		source        = flag.Int("source", 0, "pole with +1 charge")
		sink          = flag.Int("sink", -1, "pole with -1 charge (default n-1)")
		trOut         = flag.String("trace", "", "write a Chrome trace_event file (load in Perfetto / chrome://tracing)")
		trEv          = flag.String("trace-events", "", "write the deterministic JSONL span/cost event stream")
		nRHS          = flag.Int("rhs", 1, "number of right-hand sides; >1 solves pole pairs (source, source+i) through one session")
		faults        = flag.String("faults", "", "deterministic fault plan, e.g. 'seed=1,drop=0.01' or bare drop rate '0.01' (see cc.ParseFaultPlan)")
		budget        = flag.String("budget", "", "abort when exhausted: 'rounds=N,wall=DUR' or bare round count 'N'")
		debugAddr     = flag.String("debug-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address (e.g. localhost:6060) for the duration of the run")
		debugHold     = flag.Duration("debug-hold", 0, "keep the -debug-addr server up this long after the run (for scraping short runs)")
		transportSpec = flag.String("transport", "local", "delivery backend: 'local', 'mem' (in-process wire codec), or 'tcp[,procs=N][,bin=PATH][,supervise=1]' (multi-process loopback clique); results are bit-identical across backends")
		chaosSpec     = flag.String("chaos", "", "socket-level chaos plan for the tcp backend, e.g. 'seed=7,reset=0.002,partial=0.05,kill=3:1' (see transport.ParseChaosPlan); implies supervision, results stay bit-identical")
		flightPath    = flag.String("flight", "", "attach a transport flight recorder (tcp backend): its wall-clock event ring is written here at exit and auto-dumped on unrecoverable failure; also served at /debug/flight with -debug-addr")
	)
	flag.Parse()

	var fl *trace.Flight
	if *flightPath != "" {
		fl = trace.NewFlight(trace.DefaultFlightSize)
	}
	var ro core.RunOptions
	if *debugAddr != "" {
		srv, reg, err := startDebug(*debugAddr, fl)
		if err != nil {
			return err
		}
		defer holdAndClose(srv, *debugHold)
		ro.Metrics = reg
	}
	if *faults != "" {
		plan, err := cc.ParseFaultPlan(*faults)
		if err != nil {
			return err
		}
		ro.Faults = plan
		fmt.Printf("faults: %s\n", plan)
	}
	if *budget != "" {
		b, err := rounds.ParseBudget(*budget)
		if err != nil {
			return err
		}
		ro.Budget = b
	}
	var meshT *tcp.Transport
	if *transportSpec != "" && *transportSpec != "local" {
		var chaos *transport.ChaosPlan
		if *chaosSpec != "" {
			var err error
			if chaos, err = transport.ParseChaosPlan(*chaosSpec); err != nil {
				return err
			}
		}
		bt, err := tcp.OpenWith(*transportSpec, chaos)
		if err != nil {
			return err
		}
		if bt != nil {
			defer bt.Close()
			ro.Transport = bt
			fmt.Printf("transport: %s\n", *transportSpec)
			if tt, ok := bt.(*tcp.Transport); ok {
				meshT = tt
				if fl != nil {
					tt.SetFlight(fl, *flightPath)
				}
				if chaos != nil {
					fmt.Printf("transport: chaos %s\n", chaos)
					// Runs after the report: the smoke gates filter '^transport:'.
					defer func() {
						rec := tt.Recovery()
						fmt.Printf("transport: recovery kills=%d restarts=%d respawns=%d replayed-barriers=%d heartbeat-failures=%d epoch=%d\n",
							rec.Kills, rec.Restarts, rec.Respawns, rec.ReplayedBarriers, rec.HeartbeatFailures, tt.Epoch())
					}()
				}
			}
		}
	} else if *chaosSpec != "" {
		return fmt.Errorf("-chaos requires a tcp -transport")
	} else if *flightPath != "" {
		return fmt.Errorf("-flight requires a tcp -transport")
	}

	var g *graph.Graph
	var err error
	if *path != "" {
		g, err = readGraph(*path)
	} else {
		g, err = generate(*gen, *n)
	}
	if err != nil {
		return err
	}
	t := *sink
	if t < 0 {
		t = g.N() - 1
	}
	if *source < 0 || *source >= g.N() || t < 0 || t >= g.N() || *source == t {
		return fmt.Errorf("bad poles %d, %d for n=%d", *source, t, g.N())
	}

	var tr *trace.Tracer
	if *trOut != "" || *trEv != "" {
		tr = trace.New()
		if meshT != nil {
			// With a traced tcp mesh, the coordinator asks every worker
			// for its local span records at each barrier and merges them
			// as node-%d subtrees, so the files below hold one global
			// timeline.
			meshT.SetTracer(tr)
		}
	}
	ro.Trace = tr
	fmt.Printf("graph: n=%d m=%d; eps=%g\n", g.N(), g.M(), *eps)
	if *nRHS > 1 {
		if err := runSession(g, *source, t, *eps, *nRHS, ro); err != nil {
			return err
		}
	} else {
		b := linalg.NewVec(g.N())
		b[*source] = 1
		b[t] = -1
		res, err := core.SolveLaplacianWith(g, b, *eps, ro)
		if err != nil {
			return err
		}
		fmt.Printf("x[%d] - x[%d] = %.9f (effective resistance between the poles)\n",
			*source, t, res.X[*source]-res.X[t])
		fmt.Printf("sparsifier: %d edges; chebyshev iterations: %d\n", res.SparsifierEdges, res.Iterations)
		fmt.Println(res.Rounds.Breakdown)
	}
	if tr.Enabled() {
		fmt.Println(tr.Summary())
		if err := tr.WriteFiles(*trOut, *trEv); err != nil {
			return err
		}
		for _, p := range []string{*trOut, *trEv} {
			if p != "" {
				fmt.Printf("trace: wrote %s\n", p)
			}
		}
	}
	if fl != nil {
		if err := fl.DumpFile(*flightPath); err != nil {
			return err
		}
		fmt.Printf("flight: wrote %s (%d events)\n", *flightPath, fl.Len())
	}
	return nil
}

// runSession pushes k pole-pair right-hand sides (source, source+i mod n)
// through one LaplacianSession: the sparsifier is preprocessed once and the
// per-solve round delta is reported for each right-hand side.
func runSession(g *graph.Graph, source, sink int, eps float64, k int, ro core.RunOptions) (err error) {
	sess, err := core.NewLaplacianSession(g, core.SessionOptions{Run: ro, Warm: true})
	if err != nil {
		return err
	}
	pre := sess.Rounds()
	fmt.Printf("session: preprocessed in %d rounds (measured %d, charged %d)\n",
		pre.Total, pre.Measured, pre.Charged)
	n := g.N()
	for i := 0; i < k; i++ {
		t := sink
		if i > 0 {
			t = (source + i) % n
			if t == source {
				t = (t + 1) % n
			}
		}
		b := linalg.NewVec(n)
		b[source] = 1
		b[t] = -1
		res, err := sess.Solve(b, eps)
		if err != nil {
			return err
		}
		fmt.Printf("rhs %2d: x[%d] - x[%d] = %.9f  (%d cheby iterations, +%d rounds)\n",
			i, source, t, res.X[source]-res.X[t], res.Iterations, res.Rounds.Total)
	}
	tot := sess.Rounds()
	fmt.Printf("session: %d right-hand sides in %d total rounds (measured %d, charged %d)\n",
		k, tot.Total, tot.Measured, tot.Charged)
	return nil
}

// startDebug creates the process-wide metrics registry, points the routing
// primitives and the numerical kernels at it, and serves the debug endpoints on addr (plus the flight
// recorder on /debug/flight when one is attached).
func startDebug(addr string, fl *trace.Flight) (*metrics.DebugServer, *metrics.Registry, error) {
	reg := metrics.NewRegistry()
	cc.SetMetrics(reg)
	linalg.SetMetrics(reg)
	srv, err := metrics.StartDebugServerWith(addr, reg, map[string]http.Handler{
		"/debug/flight": fl.Handler(),
	})
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("debug: serving /metrics and /debug/pprof on http://%s\n", srv.Addr())
	return srv, reg, nil
}

// holdAndClose keeps the debug server up for the grace period (so short
// runs can still be scraped) and shuts it down.
func holdAndClose(srv *metrics.DebugServer, hold time.Duration) {
	if hold > 0 {
		fmt.Printf("debug: holding %s for scrapes of http://%s\n", hold, srv.Addr())
		time.Sleep(hold)
	}
	srv.Close()
	cc.SetMetrics(nil)
	linalg.SetMetrics(nil)
}

func generate(kind string, n int) (*graph.Graph, error) {
	switch kind {
	case "regular":
		return graph.RandomRegular(n, 8, 1)
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return graph.Grid(side, side), nil
	case "complete":
		return graph.Complete(n), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", kind)
	}
}

func readGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}
