// Command lapccd is the solver-as-a-service daemon: it serves the facade's
// algorithms over HTTP/JSON (see internal/serve for the wire format and the
// endpoint list) with pooled per-topology sessions, bounded-inflight
// admission control, and per-request round/wall budgets.
//
//	go run ./cmd/lapccd -addr 127.0.0.1:8080
//	curl -s localhost:8080/v1/solve -d '{"graph":{"n":3,"edges":[[0,1,1],[1,2,1]]},"rhs":[[1,0,-1]]}'
//	curl -s localhost:8080/v1/stats
//
// Repeat topologies (same vertex count and edge list, any weights) hit the
// session pool and skip the Theorem 3.3 preprocessing; responses stay
// bit-identical to direct library calls. The /metrics, /metrics.json, and
// /debug/pprof/ endpoints expose the live registry of the whole stack.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lapcc/internal/cc"
	"lapcc/internal/cli"
	"lapcc/internal/linalg"
	"lapcc/internal/metrics"
	"lapcc/internal/serve"
	"lapcc/internal/trace"
	"lapcc/internal/transport"
	"lapcc/internal/transport/tcp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lapccd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
		poolSize = flag.Int("pool", 8, "pooled sessions per op kind (LRU-evicted beyond this)")
		inflight = flag.Int("max-inflight", 0, "admitted concurrent requests; excess sheds with 429 (0 = 2*GOMAXPROCS)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown window: on SIGTERM/SIGINT stop accepting and wait this long for in-flight requests")
		flushTo  = flag.String("metrics-flush", "", "write a final metrics JSON snapshot to this path on shutdown (\"-\" = stderr; empty disables)")

		accessLog     = flag.Bool("access-log", false, "write one JSON access-log line per request to stderr (request ID, op, status, latency)")
		traceRing     = flag.Int("trace-ring", serve.DefaultTraceRing, "how many recent ?trace=1 request traces /v1/trace/{id} retains")
		flightPath    = flag.String("flight", "", "attach a transport flight recorder: its event ring is auto-dumped here on unrecoverable transport failure and served at /debug/flight")
		transportSpec = flag.String("transport", "local", "delivery backend for solver runs: 'local', 'mem', or 'tcp[,procs=N][,bin=PATH][,supervise=1]'; a non-local backend serializes requests (max-inflight 1)")
		chaosSpec     = flag.String("chaos", "", "socket-level chaos plan for the tcp backend (see transport.ParseChaosPlan); implies supervision")
	)
	flag.Parse()

	reg := metrics.NewRegistry()
	cc.SetMetrics(reg)
	linalg.SetMetrics(reg)
	defer func() {
		cc.SetMetrics(nil)
		linalg.SetMetrics(nil)
	}()

	opts := serve.Options{
		PoolSize:    *poolSize,
		MaxInflight: *inflight,
		Metrics:     reg,
		TraceRing:   *traceRing,
	}
	if *accessLog {
		opts.AccessLog = os.Stderr
	}
	var fl *trace.Flight
	if *flightPath != "" || strings.HasPrefix(*transportSpec, "tcp") {
		fl = trace.NewFlight(trace.DefaultFlightSize)
		opts.Flight = fl
	}
	bt, _, err := cli.OpenTransport(*transportSpec, *chaosSpec)
	if err != nil {
		return err
	}
	if bt != nil {
		defer bt.Close()
		opts.Transport = bt
		fmt.Printf("lapccd: transport %s\n", *transportSpec)
		if tt, ok := bt.(*tcp.Transport); ok {
			tt.SetFlight(fl, *flightPath)
			// /v1/stats and the lapcc_transport_* gauges snapshot the
			// coordinator's recovery counters plus this process's
			// chaos-injection counters.
			opts.TransportStats = func() serve.TransportStats {
				rec := tt.Recovery()
				resets, partials, stalls := transport.ChaosCounters()
				return serve.TransportStats{
					Epoch:             tt.Epoch(),
					Kills:             rec.Kills,
					Restarts:          rec.Restarts,
					Respawns:          rec.Respawns,
					ReplayedBarriers:  rec.ReplayedBarriers,
					HeartbeatFailures: rec.HeartbeatFailures,
					ChaosResets:       resets,
					ChaosPartials:     partials,
					ChaosStalls:       stalls,
				}
			}
		}
	}

	srv := serve.New(opts)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Slow-client hardening: a stalled or malicious connection must not pin
	// a server goroutine forever. Solves themselves run within ReadTimeout's
	// body window; per-request round budgets bound them much tighter.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Printf("lapccd: serving on http://%s (pool %d, stats at /v1/stats)\n", ln.Addr(), *poolSize)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		// Graceful drain: stop accepting, let every in-flight request
		// complete within the window (zero 5xx under a clean SIGTERM),
		// then flush the final metrics snapshot. A second signal aborts
		// the drain immediately.
		fmt.Printf("lapccd: %s, draining (up to %s)\n", sig, *drain)
		go func() {
			s := <-stop
			fmt.Fprintf(os.Stderr, "lapccd: second %s during drain, aborting\n", s)
			os.Exit(1)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		err := hs.Shutdown(ctx)
		if ferr := flushMetrics(reg, *flushTo); ferr != nil && err == nil {
			err = ferr
		}
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		fmt.Printf("lapccd: drained cleanly (%d requests served, %d shed)\n",
			srv.Stats().Requests, srv.Stats().Shed)
		return nil
	}
}

// flushMetrics writes the registry's final JSON snapshot to the configured
// sink ("" disables, "-" is stderr) so a drained daemon leaves its counters
// behind for the operator.
func flushMetrics(reg *metrics.Registry, dst string) error {
	if dst == "" {
		return nil
	}
	if dst == "-" {
		return reg.WriteJSON(os.Stderr)
	}
	f, err := os.Create(dst)
	if err != nil {
		return fmt.Errorf("metrics flush: %w", err)
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("metrics flush: %w", err)
	}
	return f.Close()
}
