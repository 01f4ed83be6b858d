// Command flowcc runs the congested-clique flow algorithms on generated or
// file-based instances and reports values, costs, and round breakdowns,
// including the section 1.1 baselines.
//
// Arc file format: one arc per line, "from to capacity [cost]"; lines
// starting with '#' are ignored.
//
//	go run ./cmd/flowcc -algo maxflow -gen layered -width 6
//	go run ./cmd/flowcc -algo mincost -n 8
//	go run ./cmd/flowcc -algo maxflow -arcs net.txt -source 0 -sink 9
//	go run ./cmd/flowcc -algo maxflow -trace out.json   # Perfetto-loadable
//	go run ./cmd/flowcc -algo maxflow -faults seed=1,drop=0.01
//	go run ./cmd/flowcc -algo mincost -budget rounds=100000
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
	"lapcc/internal/maxflow"
	"lapcc/internal/mcmf"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/trace"
	"lapcc/internal/transport"
	"lapcc/internal/transport/tcp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flowcc:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algo          = flag.String("algo", "maxflow", "maxflow | mincost")
		path          = flag.String("arcs", "", "arc-list file (from to cap [cost])")
		width         = flag.Int("width", 4, "layered generator width (maxflow)")
		layers        = flag.Int("layers", 3, "layered generator depth (maxflow)")
		maxCap        = flag.Int64("maxcap", 8, "generator capacity bound")
		n             = flag.Int("n", 6, "assignment generator side size (mincost)")
		maxW          = flag.Int64("maxcost", 16, "generator cost bound (mincost)")
		source        = flag.Int("source", 0, "source vertex")
		sink          = flag.Int("sink", -1, "sink vertex (default n-1)")
		seed          = flag.Int64("seed", 7, "generator seed")
		trOut         = flag.String("trace", "", "write a Chrome trace_event file (load in Perfetto / chrome://tracing)")
		trEv          = flag.String("trace-events", "", "write the deterministic JSONL span/cost event stream")
		faults        = flag.String("faults", "", "deterministic fault plan, e.g. 'seed=1,drop=0.01' or bare drop rate '0.01' (see cc.ParseFaultPlan)")
		budget        = flag.String("budget", "", "abort when exhausted: 'rounds=N,wall=DUR' or bare round count 'N'")
		debugAddr     = flag.String("debug-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address (e.g. localhost:6060) for the duration of the run")
		debugHold     = flag.Duration("debug-hold", 0, "keep the -debug-addr server up this long after the run (for scraping short runs)")
		transportSpec = flag.String("transport", "local", "delivery backend: 'local', 'mem' (in-process wire codec), or 'tcp[,procs=N][,bin=PATH][,supervise=1]' (multi-process loopback clique); results are bit-identical across backends")
		chaosSpec     = flag.String("chaos", "", "socket-level chaos plan for the tcp backend, e.g. 'seed=7,reset=0.002,partial=0.05,kill=3:1' (see transport.ParseChaosPlan); implies supervision, results stay bit-identical")
		flightPath    = flag.String("flight", "", "attach a transport flight recorder (tcp backend): its wall-clock event ring is written here at exit and auto-dumped on unrecoverable failure; also served at /debug/flight with -debug-addr")
	)
	flag.Parse()

	var tr *trace.Tracer
	if *trOut != "" || *trEv != "" {
		tr = trace.New()
	}
	var fl *trace.Flight
	if *flightPath != "" {
		fl = trace.NewFlight(trace.DefaultFlightSize)
	}
	ro := core.RunOptions{Trace: tr}
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
				// Merge worker-local span records into the global tracer
				// as node-%d subtrees at every barrier.
				tt.SetTracer(tr)
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
	finishTrace := func() error {
		if fl != nil {
			if err := fl.DumpFile(*flightPath); err != nil {
				return err
			}
			fmt.Printf("flight: wrote %s (%d events)\n", *flightPath, fl.Len())
		}
		if !tr.Enabled() {
			return nil
		}
		fmt.Println(tr.Summary())
		if err := tr.WriteFiles(*trOut, *trEv); err != nil {
			return err
		}
		for _, p := range []string{*trOut, *trEv} {
			if p != "" {
				fmt.Printf("trace: wrote %s\n", p)
			}
		}
		return nil
	}

	switch *algo {
	case "maxflow":
		var dg *graph.DiGraph
		var err error
		if *path != "" {
			dg, err = readArcs(*path)
			if err != nil {
				return err
			}
		} else {
			dg = graph.LayeredDAG(*layers, *width, 2, *maxCap, *seed)
		}
		t := *sink
		if t < 0 {
			t = dg.N() - 1
		}
		res, err := core.MaxFlowWith(dg, *source, t, ro)
		if err != nil {
			return err
		}
		fmt.Printf("max flow: value=%d (n=%d m=%d U=%d)\n", res.Value, dg.N(), dg.M(), dg.MaxCapacity())
		fmt.Printf("  IPM iterations=%d, final augmentations=%d\n", res.IPMIterations, res.FinalAugmentations)
		fmt.Println(res.Rounds.Breakdown)
		ff, err := maxflow.FordFulkerson(dg, *source, t, nil)
		if err != nil {
			return err
		}
		fmt.Printf("baselines: Ford-Fulkerson %d rounds, trivial gather %d rounds\n",
			ff.Rounds, maxflow.TrivialRounds(dg))
		return finishTrace()

	case "mincost":
		var dg *graph.DiGraph
		var sigma []int64
		if *path != "" {
			var err error
			dg, err = readArcs(*path)
			if err != nil {
				return err
			}
			// Demand: one unit from -source to -sink.
			t := *sink
			if t < 0 {
				t = dg.N() - 1
			}
			sigma = make([]int64, dg.N())
			sigma[*source] = 1
			sigma[t] = -1
		} else {
			dg, sigma = assignmentInstance(*n, *n, 3, *maxW, *seed)
		}
		res, err := core.MinCostFlowWith(dg, sigma, ro)
		if err != nil {
			return err
		}
		fmt.Printf("min-cost flow: cost=%d (n=%d m=%d W=%d)\n", res.Cost, dg.N(), dg.M(), dg.MaxCost())
		fmt.Printf("  IPM iterations=%d, repair augmentations=%d\n", res.ProgressIterations, res.RepairAugmentations)
		fmt.Println(res.Rounds.Breakdown)
		_, oracleCost, err := mcmf.Solve(dg, sigma)
		if err != nil {
			return err
		}
		fmt.Printf("oracle agreement: %v (SSP cost %d)\n", oracleCost == res.Cost, oracleCost)
		return finishTrace()

	default:
		return fmt.Errorf("unknown -algo %q (want maxflow or mincost)", *algo)
	}
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

func assignmentInstance(left, right, degree int, maxCost int64, seed int64) (*graph.DiGraph, []int64) {
	rng := newRng(seed)
	dg := graph.NewDi(left + right)
	sigma := make([]int64, left+right)
	for u := 0; u < left; u++ {
		partner := u % right
		dg.MustAddArc(u, left+partner, 1, 1+rng.Int63n(maxCost))
		for d := 1; d < degree; d++ {
			dg.MustAddArc(u, left+rng.Intn(right), 1, 1+rng.Int63n(maxCost))
		}
		sigma[u] = 1
		sigma[left+partner]--
	}
	return dg, sigma
}

func readArcs(path string) (*graph.DiGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dg, err := graph.ReadArcList(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return dg, nil
}
