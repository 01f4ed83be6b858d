package serve

// Robustness tests for the serving layer: per-request panic recovery (a
// handler bug costs one enveloped 500, not the daemon) and graceful drain
// (an http.Server.Shutdown completes every admitted request — the zero-5xx
// SIGTERM contract cmd/lapccd builds on).

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lapcc/internal/graph"
	"lapcc/internal/metrics"
)

// TestPanicRecovery: a panicking handler yields a JSON error envelope with
// status 500, bumps the panic counters, and leaves the server fully
// serviceable for the next request.
func TestPanicRecovery(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Options{Metrics: reg})
	boom := true
	s.failpoint = func(op string) {
		if boom {
			panic("injected failure in " + op)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := graph.RandomRegular(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := solveBody(t, g)

	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var env errorEnvelope
	derr := json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if derr != nil {
		t.Fatalf("decoding panic envelope: %v", derr)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if env.Error.Code != "internal" || !strings.Contains(env.Error.Message, "recovered panic") {
		t.Fatalf("envelope %+v: want internal / recovered panic", env.Error)
	}
	if got := s.Stats().Panics; got != 1 {
		t.Fatalf("panic counter %d, want 1", got)
	}
	if got := reg.Counter("lapcc_serve_errors_total", "", "code", "panic").Value(); got != 1 {
		t.Fatalf("panic metric %d, want 1", got)
	}
	if len(s.inflight) != 0 {
		t.Fatalf("panic leaked %d inflight slots", len(s.inflight))
	}

	// The daemon must still serve.
	boom = false
	resp, err = http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status %d, want 200", resp.StatusCode)
	}
}

// TestGracefulDrainCompletesInflight: Shutdown stops accepting immediately
// but the admitted (held) request still completes with a 200 — no request
// that made it past admission is ever dropped by a drain.
func TestGracefulDrainCompletesInflight(t *testing.T) {
	s := New(Options{})
	s.hold = make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	url := "http://" + ln.Addr().String()

	g, err := graph.RandomRegular(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(solveBody(t, g)))
		if err != nil {
			done <- result{0, err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- result{resp.StatusCode, nil}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.inflight) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never acquired an inflight slot")
		}
		time.Sleep(time.Millisecond)
	}

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- hs.Shutdown(ctx)
	}()

	// The listener closes as the drain starts: new connections are refused
	// while the held request is still in flight.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get(url + "/healthz"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never closed the listener")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(s.hold)
	r := <-done
	if r.err != nil {
		t.Fatalf("held request failed during drain: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("held request got %d during drain, want 200", r.code)
	}
	if err := <-shut; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestWireNodeBound: a graph or digraph body declaring more than
// maxWireNodes nodes is rejected before anything is allocated for them,
// with a 400 bad_request envelope that carries the request ID; a small n
// is still accepted.
func TestWireNodeBound(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tc := range []struct{ path, body string }{
		{"/v1/sparsify", `{"graph":{"n":2000000000,"edges":[]}}`},
		{"/v1/maxflow", `{"graph":{"n":2000000000,"arcs":[]},"source":0,"sink":1}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var env errorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "bad_request" {
			t.Fatalf("%s: status %d, envelope %+v; want 400 bad_request", tc.path, resp.StatusCode, env.Error)
		}
		if env.Error.RequestID == "" || env.Error.RequestID != resp.Header.Get(RequestIDHeader) {
			t.Fatalf("%s: envelope request ID %q, header %q", tc.path, env.Error.RequestID, resp.Header.Get(RequestIDHeader))
		}
	}
	if _, err := (&WireGraph{N: maxWireNodes + 1}).Graph(); err == nil {
		t.Fatal("a graph of maxWireNodes+1 nodes was accepted")
	}
	if _, err := (&WireDiGraph{N: maxWireNodes + 1}).DiGraph(); err == nil {
		t.Fatal("a digraph of maxWireNodes+1 nodes was accepted")
	}
	if _, err := (&WireGraph{N: 2}).Graph(); err != nil {
		t.Fatal(err)
	}
}
