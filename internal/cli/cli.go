// Package cli holds the run flags that the solver commands share and opens
// a run from them: the tracer, the debug server with its metrics registry,
// the fault plan, the budget and the delivery backend with its chaos plan,
// flight recorder and mesh tracer, gathered into one core.RunOptions. It
// prints the run's faults:, transport: and debug: lines, and on exit writes
// the trace and flight files and prints the recovery line.
//
//	var rf cli.Flags
//	rf.Register(flag.CommandLine)
//	flag.Parse()
//	run, err := rf.Open(os.Stdout)
//	if err != nil {
//		return err
//	}
//	defer run.Close()
//	... core.MaxFlowWith(dg, s, t, run.Options) ...
//	return run.Finish()
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"time"

	"lapcc/internal/cc"
	"lapcc/internal/core"
	"lapcc/internal/linalg"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/trace"
	"lapcc/internal/transport"
	"lapcc/internal/transport/tcp"
)

// Flags are the run flags: tracing, faults, budget, debug server and
// delivery backend. They are set only through Register's flag set.
type Flags struct {
	trace       string
	traceEvents string
	faults      string
	budget      string
	debugAddr   string
	debugHold   time.Duration
	transport   string
	chaos       string
	flight      string
}

// Register declares the run flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.trace, "trace", "", "write a Chrome trace_event file (load in Perfetto / chrome://tracing)")
	fs.StringVar(&f.traceEvents, "trace-events", "", "write the deterministic JSONL span/cost event stream")
	fs.StringVar(&f.faults, "faults", "", "deterministic fault plan, e.g. 'seed=1,drop=0.01' or bare drop rate '0.01' (see cc.ParseFaultPlan)")
	fs.StringVar(&f.budget, "budget", "", "abort when exhausted: 'rounds=N,wall=DUR' or bare round count 'N'")
	fs.StringVar(&f.debugAddr, "debug-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address (e.g. localhost:6060) for the duration of the run")
	fs.DurationVar(&f.debugHold, "debug-hold", 0, "keep the -debug-addr server up this long after the run (for scraping short runs)")
	fs.StringVar(&f.transport, "transport", "local", "delivery backend: 'local', 'mem' (in-process wire codec), or 'tcp[,procs=N][,bin=PATH][,supervise=1]' (multi-process loopback clique); results are bit-identical across backends")
	fs.StringVar(&f.chaos, "chaos", "", "socket-level chaos plan for the tcp backend, e.g. 'seed=7,reset=0.002,partial=0.05,kill=3:1' (see transport.ParseChaosPlan); implies supervision, results stay bit-identical")
	fs.StringVar(&f.flight, "flight", "", "attach a transport flight recorder (tcp backend): its wall-clock event ring is written here at exit and auto-dumped on unrecoverable failure; also served at /debug/flight with -debug-addr")
}

// Run is an opened run. Options carries it into the facade; Finish writes
// its files after a successful run, and Close releases it.
type Run struct {
	Options core.RunOptions

	flags  Flags
	out    io.Writer
	debug  *Debug
	flight *trace.Flight
	mesh   *tcp.Transport
	chaos  *transport.ChaosPlan
}

// Open opens the run the flags describe, in order: the debug server, the
// fault plan, the budget and the delivery backend, printing their debug:,
// faults: and transport: lines to out. On an error it releases what it
// opened.
func (f *Flags) Open(out io.Writer) (*Run, error) {
	r := &Run{flags: *f, out: out}
	if err := r.open(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

func (r *Run) open() error {
	f := &r.flags
	if f.trace != "" || f.traceEvents != "" {
		r.Options.Trace = trace.New()
	}
	if f.flight != "" {
		r.flight = trace.NewFlight(trace.DefaultFlightSize)
	}
	if f.debugAddr != "" {
		d, err := StartDebug(r.out, f.debugAddr, r.flight)
		if err != nil {
			return err
		}
		r.debug = d
		r.Options.Metrics = d.Registry
	}
	if f.faults != "" {
		plan, err := cc.ParseFaultPlan(f.faults)
		if err != nil {
			return err
		}
		r.Options.Faults = plan
		fmt.Fprintf(r.out, "faults: %s\n", plan)
	}
	if f.budget != "" {
		b, err := rounds.ParseBudget(f.budget)
		if err != nil {
			return err
		}
		r.Options.Budget = b
	}
	bt, chaos, err := OpenTransport(f.transport, f.chaos)
	if err != nil {
		return err
	}
	r.Options.Transport = bt // Close releases it, also on the error below
	tt, ok := bt.(*tcp.Transport)
	if f.flight != "" && !ok {
		return errors.New("-flight requires a tcp -transport")
	}
	if bt == nil {
		return nil
	}
	fmt.Fprintf(r.out, "transport: %s\n", f.transport)
	if !ok {
		return nil
	}
	r.mesh = tt
	// With a traced tcp mesh, the coordinator adds every worker's traffic
	// at each barrier as a node-%d subtree, so the trace files hold one
	// global timeline.
	tt.SetTracer(r.Options.Trace)
	if r.flight != nil {
		tt.SetFlight(r.flight, f.flight)
	}
	if chaos != nil {
		r.chaos = chaos
		fmt.Fprintf(r.out, "transport: chaos %s\n", chaos)
	}
	return nil
}

// OpenTransport opens the delivery backend spec names (see tcp.Open) with
// the chaos plan chaosSpec (see transport.ParseChaosPlan), returning the
// parsed plan too. The backend is nil for "local" and for an empty spec;
// a chaos plan needs the tcp backend. The caller owns the backend's Close.
func OpenTransport(spec, chaosSpec string) (cc.Transport, *transport.ChaosPlan, error) {
	if spec == "" || spec == "local" {
		if chaosSpec != "" {
			return nil, nil, errors.New("-chaos requires a tcp -transport")
		}
		return nil, nil, nil
	}
	var chaos *transport.ChaosPlan
	if chaosSpec != "" {
		var err error
		if chaos, err = transport.ParseChaosPlan(chaosSpec); err != nil {
			return nil, nil, err
		}
	}
	bt, err := tcp.OpenWith(spec, chaos)
	if err != nil {
		return nil, nil, err
	}
	return bt, chaos, nil
}

// Finish writes the run's files after it succeeded: the trace summary and
// the -trace and -trace-events files, then the -flight dump, printing a
// line for each.
func (r *Run) Finish() error {
	if tr := r.Options.Trace; tr.Enabled() {
		fmt.Fprintln(r.out, tr.Summary())
		if err := tr.WriteFiles(r.flags.trace, r.flags.traceEvents); err != nil {
			return err
		}
		for _, p := range []string{r.flags.trace, r.flags.traceEvents} {
			if p != "" {
				fmt.Fprintf(r.out, "trace: wrote %s\n", p)
			}
		}
	}
	if r.flight != nil {
		if err := r.flight.DumpFile(r.flags.flight); err != nil {
			return err
		}
		fmt.Fprintf(r.out, "flight: wrote %s (%d events)\n", r.flags.flight, r.flight.Len())
	}
	return nil
}

// Close releases the run, whether or not it succeeded: under a chaos plan
// it prints the mesh's recovery line, then it closes the delivery backend
// and stops the debug server.
func (r *Run) Close() {
	if r.mesh != nil && r.chaos != nil {
		// Printed after the report: the smoke gates filter '^transport:'.
		rec := r.mesh.Recovery()
		fmt.Fprintf(r.out, "transport: recovery kills=%d restarts=%d respawns=%d replayed-barriers=%d heartbeat-failures=%d epoch=%d\n",
			rec.Kills, rec.Restarts, rec.Respawns, rec.ReplayedBarriers, rec.HeartbeatFailures, r.mesh.Epoch())
	}
	if bt := r.Options.Transport; bt != nil {
		// Nothing is left to deliver: a failed close changes no answer.
		_ = bt.Close()
	}
	if r.debug != nil {
		r.debug.Stop(r.flags.debugHold)
	}
}

// Debug is a running debug server and the process-wide metrics registry it
// exposes.
type Debug struct {
	Registry *metrics.Registry
	srv      *metrics.DebugServer
	out      io.Writer
}

// StartDebug creates the process-wide metrics registry, points the routing
// primitives and the numerical kernels at it, serves /metrics,
// /metrics.json and /debug/pprof on addr, plus the flight recorder fl on
// /debug/flight (a 404 when fl is nil), and prints the debug: line to out.
func StartDebug(out io.Writer, addr string, fl *trace.Flight) (*Debug, error) {
	reg := metrics.NewRegistry()
	srv, err := metrics.StartDebugServerWith(addr, reg, map[string]http.Handler{
		"/debug/flight": fl.Handler(),
	})
	if err != nil {
		return nil, err
	}
	cc.SetMetrics(reg)
	linalg.SetMetrics(reg)
	fmt.Fprintf(out, "debug: serving /metrics and /debug/pprof on http://%s\n", srv.Addr())
	return &Debug{Registry: reg, srv: srv, out: out}, nil
}

// Stop keeps the server up for hold, so short runs can still be scraped,
// then shuts it down and detaches the registry from the routing primitives
// and the numerical kernels.
func (d *Debug) Stop(hold time.Duration) {
	if hold > 0 {
		fmt.Fprintf(d.out, "debug: holding %s for scrapes of http://%s\n", hold, d.srv.Addr())
		time.Sleep(hold)
	}
	d.srv.Close()
	cc.SetMetrics(nil)
	linalg.SetMetrics(nil)
}
