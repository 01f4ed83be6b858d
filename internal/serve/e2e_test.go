package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"

	"lapcc/internal/cc"
	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/rounds"
	"lapcc/internal/serve"
	"lapcc/internal/trace"
	"lapcc/internal/transport"
)

func startDaemon(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, req, resp any) (int, *serve.WireError) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		var env struct {
			Error serve.WireError `json:"error"`
		}
		if err := json.NewDecoder(hr.Body).Decode(&env); err != nil {
			t.Fatalf("status %d with undecodable error body: %v", hr.StatusCode, err)
		}
		return hr.StatusCode, &env.Error
	}
	if err := json.NewDecoder(hr.Body).Decode(resp); err != nil {
		t.Fatal(err)
	}
	return hr.StatusCode, nil
}

// testGraph returns a deterministic 6-regular solve instance with all
// weights in one binary class (so reweights stay on the exact-reuse tier).
func testGraph(t *testing.T, variant int) *graph.Graph {
	t.Helper()
	g, err := graph.RandomRegular(40, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.M(); i++ {
		h := uint64(i)*2654435761 + uint64(variant)*40503 + 17
		if err := g.SetWeight(i, 1.1+0.8*float64(h%1024)/1024); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func rhs(n, pole int) []float64 {
	b := make([]float64, n)
	b[pole], b[(pole+1)%n] = 1, -1
	return b
}

// TestSolveBitIdentical pins the serving layer's differential contract:
// daemon responses — cold AND pooled — are bit-identical to direct facade
// calls, including the round totals. JSON round-trips float64 exactly, so
// exact equality over the wire is exact equality of the solver output.
func TestSolveBitIdentical(t *testing.T) {
	_, ts := startDaemon(t, serve.Options{})

	for variant := 0; variant < 2; variant++ {
		g := testGraph(t, variant)
		wg := serve.ToWireGraph(g)
		b := rhs(g.N(), variant)

		var got serve.SolveResponse
		if code, werr := postJSON(t, ts.URL+"/v1/solve", serve.SolveRequest{
			Graph: &wg, RHS: [][]float64{b},
		}, &got); code != http.StatusOK {
			t.Fatalf("variant %d: status %d: %+v", variant, code, werr)
		}
		if wantCached := variant > 0; got.Cached != wantCached {
			t.Fatalf("variant %d: cached=%v, want %v", variant, got.Cached, wantCached)
		}

		want, err := core.SolveLaplacianWith(g, linalg.Vec(b), 1e-8, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.X) != 1 || len(got.X[0]) != len(want.X) {
			t.Fatalf("variant %d: bad X shape", variant)
		}
		for i := range want.X {
			if got.X[0][i] != want.X[i] {
				t.Fatalf("variant %d: x[%d]: daemon %v != direct %v", variant, i, got.X[0][i], want.X[i])
			}
		}
		if got.Rounds.Total != want.Rounds.Total || got.Rounds.Charged != want.Rounds.Charged {
			t.Fatalf("variant %d: rounds: daemon %+v != direct %+v", variant, got.Rounds, want.Rounds)
		}
		if got.Iterations[0] != want.Iterations {
			t.Fatalf("variant %d: iterations: daemon %d != direct %d", variant, got.Iterations[0], want.Iterations)
		}
	}
}

// TestSparsifyBitIdentical is the same differential for the sparsify op:
// the pooled chain (exact-only reuse) must return the same H, alpha, and
// rounds as a fresh SparsifyWith.
func TestSparsifyBitIdentical(t *testing.T) {
	_, ts := startDaemon(t, serve.Options{})

	for variant := 0; variant < 2; variant++ {
		g := testGraph(t, variant)
		wg := serve.ToWireGraph(g)
		var got serve.SparsifyResponse
		if code, werr := postJSON(t, ts.URL+"/v1/sparsify", serve.SparsifyRequest{Graph: &wg}, &got); code != http.StatusOK {
			t.Fatalf("variant %d: status %d: %+v", variant, code, werr)
		}
		want, err := core.SparsifyWith(g, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantH := serve.ToWireGraph(want.H)
		if got.H.N != wantH.N || len(got.H.Edges) != len(wantH.Edges) {
			t.Fatalf("variant %d: H shape differs", variant)
		}
		for i := range wantH.Edges {
			if got.H.Edges[i] != wantH.Edges[i] {
				t.Fatalf("variant %d: H edge %d: daemon %v != direct %v", variant, i, got.H.Edges[i], wantH.Edges[i])
			}
		}
		if got.Alpha != want.Alpha {
			t.Fatalf("variant %d: alpha: daemon %v != direct %v", variant, got.Alpha, want.Alpha)
		}
		if got.Rounds.Total != want.Rounds.Total {
			t.Fatalf("variant %d: rounds: daemon %+v != direct %+v", variant, got.Rounds, want.Rounds)
		}
	}
}

// deliverCounter is a transport that counts its Deliver calls.
type deliverCounter struct {
	cc.Transport
	calls atomic.Int64
}

func (d *deliverCounter) Deliver(round, n int, out []cc.Outbox) ([][]cc.Message, cc.DeliveryStats, error) {
	d.calls.Add(1)
	return d.Transport.Deliver(round, n, out)
}

// TestSparsifyUsesTransport: the daemon's transport carries a sparsify
// request's broadcasts, on a pool miss and on a traced request, and the
// response body equals a no-transport daemon's byte for byte.
func TestSparsifyUsesTransport(t *testing.T) {
	tr := &deliverCounter{Transport: transport.NewMem()}
	_, viaTS := startDaemon(t, serve.Options{Transport: tr})
	_, plainTS := startDaemon(t, serve.Options{})
	wg := serve.ToWireGraph(testGraph(t, 0))
	body, err := json.Marshal(serve.SparsifyRequest{Graph: &wg})
	if err != nil {
		t.Fatal(err)
	}
	post := func(url string) []byte {
		t.Helper()
		hr, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		data, err := io.ReadAll(hr.Body)
		if err != nil {
			t.Fatal(err)
		}
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, hr.StatusCode, data)
		}
		return data
	}
	for _, path := range []string{"/v1/sparsify", "/v1/sparsify?trace=1"} {
		before := tr.calls.Load()
		via := post(viaTS.URL + path)
		if tr.calls.Load() == before {
			t.Fatalf("%s: the daemon's transport saw no Deliver call", path)
		}
		if plain := post(plainTS.URL + path); !bytes.Equal(via, plain) {
			t.Fatalf("%s: body over the transport differs:\n%s\nwithout:\n%s", path, via, plain)
		}
	}
}

// TestFlowOpsBitIdentical covers the stateless ops: orient, maxflow,
// mincostflow daemon responses equal direct facade calls.
func TestFlowOpsBitIdentical(t *testing.T) {
	_, ts := startDaemon(t, serve.Options{})

	g := testGraph(t, 0)
	wg := serve.ToWireGraph(g)
	var ores serve.OrientResponse
	if code, werr := postJSON(t, ts.URL+"/v1/orient", serve.OrientRequest{Graph: &wg}, &ores); code != http.StatusOK {
		t.Fatalf("orient: status %d: %+v", code, werr)
	}
	owant, err := core.EulerianOrientWith(g, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range owant.Orient {
		if ores.Orient[i] != owant.Orient[i] {
			t.Fatalf("orient[%d] differs", i)
		}
	}
	if ores.Rounds.Total != owant.Rounds.Total {
		t.Fatalf("orient rounds: daemon %+v != direct %+v", ores.Rounds, owant.Rounds)
	}

	dg := graph.LayeredDAG(2, 4, 2, 4, 5)
	wd := serve.ToWireDiGraph(dg)
	var mf serve.MaxFlowResponse
	if code, werr := postJSON(t, ts.URL+"/v1/maxflow", serve.MaxFlowRequest{
		Graph: &wd, Source: 0, Sink: dg.N() - 1,
	}, &mf); code != http.StatusOK {
		t.Fatalf("maxflow: status %d: %+v", code, werr)
	}
	mfwant, err := core.MaxFlowWith(dg, 0, dg.N()-1, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mf.Value != mfwant.Value || mf.Rounds.Total != mfwant.Rounds.Total {
		t.Fatalf("maxflow: daemon (%d, %+v) != direct (%d, %+v)", mf.Value, mf.Rounds, mfwant.Value, mfwant.Rounds)
	}
	for i := range mfwant.Flow {
		if mf.Flow[i] != mfwant.Flow[i] {
			t.Fatalf("maxflow flow[%d] differs", i)
		}
	}

	udg := graph.LayeredDAG(2, 4, 2, 1, 6)
	sigma := make([]int64, udg.N())
	sigma[0], sigma[udg.N()-1] = 1, -1
	wu := serve.ToWireDiGraph(udg)
	var mc serve.MinCostFlowResponse
	if code, werr := postJSON(t, ts.URL+"/v1/mincostflow", serve.MinCostFlowRequest{
		Graph: &wu, Sigma: sigma,
	}, &mc); code != http.StatusOK {
		t.Fatalf("mincostflow: status %d: %+v", code, werr)
	}
	mcwant, err := core.MinCostFlowWith(udg, sigma, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Cost != mcwant.Cost || mc.Rounds.Total != mcwant.Rounds.Total {
		t.Fatalf("mincostflow: daemon (%d, %+v) != direct (%d, %+v)", mc.Cost, mc.Rounds, mcwant.Cost, mcwant.Rounds)
	}
}

// TestBudgetExceeded pins the admission-control error shape: a request
// whose rounds budget cannot cover the run fails with a typed 429 carrying
// code "budget_exceeded" and the partial round count.
func TestBudgetExceeded(t *testing.T) {
	_, ts := startDaemon(t, serve.Options{})
	g := testGraph(t, 0)
	wg := serve.ToWireGraph(g)
	var got serve.SolveResponse
	code, werr := postJSON(t, ts.URL+"/v1/solve", serve.SolveRequest{
		Graph: &wg, RHS: [][]float64{rhs(g.N(), 0)},
		Budget: &serve.WireBudget{Rounds: 1},
	}, &got)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", code)
	}
	if werr.Code != "budget_exceeded" {
		t.Fatalf("code %q, want budget_exceeded", werr.Code)
	}
	if werr.Rounds <= 0 {
		t.Fatalf("partial rounds %d, want > 0", werr.Rounds)
	}

	// The exhausted budget must not poison the pooled session: the same
	// request without a budget succeeds afterwards.
	if code, werr := postJSON(t, ts.URL+"/v1/solve", serve.SolveRequest{
		Graph: &wg, RHS: [][]float64{rhs(g.N(), 0)},
	}, &got); code != http.StatusOK {
		t.Fatalf("post-budget solve: status %d: %+v", code, werr)
	}
}

// TestBatchedRHS pins the batched-lane contract: a k-RHS request returns k
// potential vectors, each bit-identical to its single-RHS counterpart, and
// one round total for the lane equal to the single solves' sum. Up to four
// right-hand sides run as lanes of one Chebyshev iteration, so k covers a
// lone lane, a padded group, a full group, and full groups plus leftovers,
// on a pool miss and on a pool hit (a reweight of the same topology).
func TestBatchedRHS(t *testing.T) {
	for _, k := range []int{1, 3, 4, 5, 9} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			_, ts := startDaemon(t, serve.Options{})
			lanes := make([][]float64, k)
			for j := range lanes {
				lanes[j] = rhs(40, 7*j%40)
			}
			// The reference: one session, one Solve per right-hand side.
			var ref *core.LaplacianSession
			for pass := 0; pass < 2; pass++ {
				g := testGraph(t, pass)
				wg := serve.ToWireGraph(g)
				var got serve.SolveResponse
				if code, werr := postJSON(t, ts.URL+"/v1/solve", serve.SolveRequest{Graph: &wg, RHS: lanes}, &got); code != http.StatusOK {
					t.Fatalf("pass %d: status %d: %+v", pass, code, werr)
				}
				if got.Cached != (pass == 1) {
					t.Fatalf("pass %d: cached=%v", pass, got.Cached)
				}
				if len(got.X) != k || len(got.Iterations) != k {
					t.Fatalf("pass %d: %d solutions for %d right-hand sides", pass, len(got.X), k)
				}
				// A miss's rounds include the session build, a hit's the
				// reweight.
				var prep int64
				if pass == 0 {
					var err error
					if ref, err = core.NewLaplacianSession(g, core.SessionOptions{ExactReuse: true}); err != nil {
						t.Fatal(err)
					}
					prep = ref.Rounds().Total
				} else {
					before := ref.Rounds().Total
					if err := ref.Reweight(g.Weights()); err != nil {
						t.Fatal(err)
					}
					prep = ref.Rounds().Total - before
				}
				var sum int64
				for j, b := range lanes {
					want, err := ref.Solve(linalg.Vec(b), 1e-8)
					if err != nil {
						t.Fatal(err)
					}
					sum += want.Rounds.Total
					if got.Iterations[j] != want.Iterations {
						t.Fatalf("pass %d lane %d: %d iterations, want %d", pass, j, got.Iterations[j], want.Iterations)
					}
					for i := range want.X {
						if math.Float64bits(got.X[j][i]) != math.Float64bits(want.X[i]) {
							t.Fatalf("pass %d lane %d: x[%d] differs", pass, j, i)
						}
					}
				}
				if got.Rounds.Total != prep+sum {
					t.Fatalf("pass %d: %d rounds, want %d + the solves' %d", pass, got.Rounds.Total, prep, sum)
				}
			}
		})
	}

	g := testGraph(t, 0)
	wg := serve.ToWireGraph(g)
	four := [][]float64{rhs(40, 0), rhs(40, 11), rhs(40, 23), rhs(40, 31)}

	t.Run("traced", func(t *testing.T) {
		// The retained stream of a traced 4-RHS request is the stream of
		// a traced session solving the four right-hand sides one by one.
		_, ts := startDaemon(t, serve.Options{})
		var got serve.SolveResponse
		if code, werr := postJSON(t, ts.URL+"/v1/solve?trace=1", serve.SolveRequest{Graph: &wg, RHS: four}, &got); code != http.StatusOK {
			t.Fatalf("status %d: %+v", code, werr)
		}
		if got.Trace == nil {
			t.Fatal("traced response carries no trace block")
		}
		hr, err := http.Get(ts.URL + "/v1/trace/" + got.Trace.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		stream, err := io.ReadAll(hr.Body)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New()
		sess, err := core.NewLaplacianSession(g, core.SessionOptions{Run: core.RunOptions{Trace: tr}, ExactReuse: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range four {
			if _, err := sess.Solve(linalg.Vec(b), 1e-8); err != nil {
				t.Fatal(err)
			}
		}
		var want bytes.Buffer
		if err := tr.WriteJSONL(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stream, want.Bytes()) {
			t.Fatalf("retained trace (%d bytes) differs from the one-by-one session's (%d bytes)", len(stream), want.Len())
		}
	})

	t.Run("budget", func(t *testing.T) {
		// A round budget that runs out inside the third right-hand side:
		// the same 429 and partial rounds as solving one by one.
		free, err := core.NewLaplacianSession(g, core.SessionOptions{ExactReuse: true})
		if err != nil {
			t.Fatal(err)
		}
		var used []int64
		for _, b := range four[:3] {
			if _, err := free.Solve(linalg.Vec(b), 1e-8); err != nil {
				t.Fatal(err)
			}
			used = append(used, free.Rounds().Total)
		}
		limit := used[1] + 1
		loop, err := core.NewLaplacianSession(g, core.SessionOptions{
			Run: core.RunOptions{Budget: rounds.NewBudget(limit, 0)}, ExactReuse: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var loopErr error
		for _, b := range four {
			if _, loopErr = loop.Solve(linalg.Vec(b), 1e-8); loopErr != nil {
				break
			}
		}
		var be *rounds.BudgetError
		if !errors.As(loopErr, &be) {
			t.Fatalf("one-by-one solves: want a budget error, got %v", loopErr)
		}
		partial := be.Partial.MeasuredRounds + be.Partial.ChargedRounds
		if partial <= used[1] || partial >= used[2] {
			t.Fatalf("budget ran out after %d rounds, want inside the third right-hand side (%d, %d)", partial, used[1], used[2])
		}

		_, ts := startDaemon(t, serve.Options{})
		var resp serve.SolveResponse
		code, werr := postJSON(t, ts.URL+"/v1/solve", serve.SolveRequest{
			Graph: &wg, RHS: four, Budget: &serve.WireBudget{Rounds: limit},
		}, &resp)
		if code != http.StatusTooManyRequests || werr.Code != "budget_exceeded" || werr.Rounds != partial {
			t.Fatalf("status %d %+v, want 429 budget_exceeded after %d rounds", code, werr, partial)
		}
		elapsed := regexp.MustCompile(`\([0-9.]+s elapsed\)`)
		if got, want := elapsed.ReplaceAllString(werr.Message, ""), elapsed.ReplaceAllString(loopErr.Error(), ""); got != want {
			t.Fatalf("message %q, want %q", got, want)
		}
	})
}

// TestConcurrentMixedWorkload drives concurrent mixed requests with
// per-request budgets through the daemon (run under -race by `make race`):
// every admitted request must succeed and return the right answer.
func TestConcurrentMixedWorkload(t *testing.T) {
	_, ts := startDaemon(t, serve.Options{MaxInflight: 64})

	dg := graph.LayeredDAG(2, 4, 2, 4, 5)
	wantMF, err := core.MaxFlowWith(dg.Clone(), 0, dg.N()-1, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := testGraph(t, w%2)
			wgr := serve.ToWireGraph(g)
			var sres serve.SolveResponse
			if code, werr := postJSON(t, ts.URL+"/v1/solve", serve.SolveRequest{
				Graph: &wgr, RHS: [][]float64{rhs(g.N(), w)},
				Budget: &serve.WireBudget{Rounds: 1_000_000},
			}, &sres); code != http.StatusOK {
				errs <- fmt.Errorf("worker %d solve: status %d: %+v", w, code, werr)
				return
			}
			wd := serve.ToWireDiGraph(dg)
			var mf serve.MaxFlowResponse
			if code, werr := postJSON(t, ts.URL+"/v1/maxflow", serve.MaxFlowRequest{
				Graph: &wd, Source: 0, Sink: dg.N() - 1,
			}, &mf); code != http.StatusOK {
				errs <- fmt.Errorf("worker %d maxflow: status %d: %+v", w, code, werr)
				return
			}
			if mf.Value != wantMF.Value {
				errs <- fmt.Errorf("worker %d maxflow: value %d, want %d", w, mf.Value, wantMF.Value)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLoadgenInProcess drives the shared load generator against an
// in-process daemon — the same path `make serve-smoke` and the benchgate
// serve suite use.
func TestLoadgenInProcess(t *testing.T) {
	_, ts := startDaemon(t, serve.Options{MaxInflight: 32})
	res, err := serve.RunLoad(serve.LoadOptions{
		BaseURL: ts.URL, Requests: 20, Concurrency: 4, N: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d/%d loadgen requests failed: %+v", res.Errors, res.Requests, res.PerOp)
	}
	m := res.NsMetrics()
	if m["Serve/solve@p50"] <= 0 || m["Serve/throughput"] <= 0 {
		t.Fatalf("degenerate metrics: %v", m)
	}
}
