package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"lapcc/internal/cc"
	"lapcc/internal/linalg"
	"lapcc/internal/metrics"
	"lapcc/internal/serve"
	"lapcc/internal/trace"
	"lapcc/internal/transport"
	"lapcc/internal/transport/tcp"
)

// backend is an open delivery backend: what the daemon is given, and the
// TCP coordinator behind it when there is one.
type backend struct {
	t   cc.Transport   // nil for the local merge
	tcp *tcp.Transport // nil unless the spec is tcp
}

func openBackend(spec string) (backend, error) {
	t, err := tcp.OpenWith(spec, nil)
	if err != nil {
		return backend{}, fmt.Errorf("open transport %q: %w", spec, err)
	}
	tt, _ := t.(*tcp.Transport)
	return backend{t: t, tcp: tt}, nil
}

func (b backend) close() {
	if b.t != nil {
		b.t.Close()
	}
}

// daemon is serve.New hosted on a loopback http.Server, wired the way
// cmd/lapccd wires it: a fresh metrics registry installed on cc, linalg and
// the server, and on tcp a flight recorder plus the recovery stats.
type daemon struct {
	reg  *metrics.Registry
	hs   *http.Server
	url  string
	errc chan error
}

// startDaemon serves over b. A non-nil wrap replaces the transport the
// server is given and the handler it serves (the traced run's boundary
// probes); nil leaves both exactly as lapccd has them.
func startDaemon(b backend, wrap *probes) (*daemon, error) {
	reg := metrics.NewRegistry()
	cc.SetMetrics(reg)
	linalg.SetMetrics(reg)
	opts := serve.Options{PoolSize: 8, Metrics: reg, TraceRing: serve.DefaultTraceRing, Transport: b.t}
	if b.tcp != nil {
		fl := trace.NewFlight(trace.DefaultFlightSize)
		opts.Flight = fl
		b.tcp.SetFlight(fl, "")
		tt := b.tcp
		opts.TransportStats = func() serve.TransportStats {
			rec := tt.Recovery()
			resets, partials, stalls := transport.ChaosCounters()
			return serve.TransportStats{
				Epoch: tt.Epoch(), Kills: rec.Kills, Restarts: rec.Restarts, Respawns: rec.Respawns,
				ReplayedBarriers: rec.ReplayedBarriers, HeartbeatFailures: rec.HeartbeatFailures,
				ChaosResets: resets, ChaosPartials: partials, ChaosStalls: stalls,
			}
		}
	}
	if wrap != nil && b.t != nil {
		wrap.transport.inner = b.t
		opts.Transport = &wrap.transport
	}
	srv := serve.New(opts)
	var h http.Handler = srv.Handler()
	if wrap != nil {
		wrap.handler.inner = h
		h = &wrap.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	d := &daemon{reg: reg, hs: hs, url: "http://" + ln.Addr().String(), errc: make(chan error, 1)}
	go func() { d.errc <- hs.Serve(ln) }()
	return d, nil
}

// stop closes the listener and every connection, then waits for the serve
// goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.errc; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	cc.SetMetrics(nil)
	linalg.SetMetrics(nil)
	return err
}
