package lapcc_test

// The golden corpus: a fixed set of core.Do requests whose round ledgers
// and answer bits are checked in (testdata/golden.json). The differential
// suites compare two runs of the same build; this test compares against a
// recorded reference, so a change that moves rounds or answers on both
// sides alike still fails here. Run with -update to rewrite the file after
// an intended change, and say why in CHANGES.md.

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"lapcc/internal/cc"
	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from this build")

const goldenPath = "testdata/golden.json"

// goldenEntry is one request's recorded outcome: its round ledger and a
// digest of its answer's bits.
type goldenEntry struct {
	Name      string `json:"name"`
	Breakdown string `json:"breakdown"`
	Digest    string `json:"digest"`
}

// goldenCase builds one request of the corpus.
type goldenCase struct {
	name string
	req  func(t *testing.T) core.Request
}

func goldenCases() []goldenCase {
	regular := func(n int, seed int64) func(t *testing.T) *graph.Graph {
		return func(t *testing.T) *graph.Graph {
			g, err := graph.RandomRegular(n, 6, seed)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	unitDemand := func(dg *graph.DiGraph) []int64 {
		sigma := make([]int64, dg.N())
		sigma[0], sigma[dg.N()-1] = 1, -1
		return sigma
	}
	rr64, rr128 := regular(64, 1), regular(128, 2)
	cases := []goldenCase{
		{"orient RandomRegular(64,6)", func(t *testing.T) core.Request {
			return core.Request{Op: core.OpOrient, Graph: rr64(t)}
		}},
		{"maxflow LayeredDAG(4,4,2,4)", func(t *testing.T) core.Request {
			dg := graph.LayeredDAG(4, 4, 2, 4, 3)
			return core.Request{Op: core.OpMaxFlow, DiGraph: dg, Args: core.Args{Source: 0, Sink: dg.N() - 1}}
		}},
		{"mincostflow LayeredDAG(4,4,2,1)", func(t *testing.T) core.Request {
			dg := graph.LayeredDAG(4, 4, 2, 1, 4)
			return core.Request{Op: core.OpMinCostFlow, DiGraph: dg, Args: core.Args{Sigma: unitDemand(dg)}}
		}},
		{"sparsify RandomRegular(128,6)", func(t *testing.T) core.Request {
			return core.Request{Op: core.OpSparsify, Graph: rr128(t)}
		}},
		{"solve RandomRegular(128,6)", func(t *testing.T) core.Request {
			g := rr128(t)
			b := linalg.NewVec(g.N())
			for i := range b {
				b[i] = float64(i) - float64(g.N()-1)/2
			}
			return core.Request{Op: core.OpSolve, Graph: g, Args: core.Args{B: b, Eps: 1e-8}}
		}},
	}
	// The four fault workloads of BENCH_faults.json, clean and under their
	// 1%-drop plans.
	faults := []struct {
		name string
		seed uint64
		req  func(t *testing.T) core.Request
	}{
		{"faults lapsolver", 101, func(t *testing.T) core.Request {
			g, err := graph.ConnectedGNM(48, 140, 11)
			if err != nil {
				t.Fatal(err)
			}
			b := linalg.NewVec(48)
			b[0], b[47] = 1, -1
			return core.Request{Op: core.OpSolve, Graph: g, Args: core.Args{B: b, Eps: 1e-8}}
		}},
		{"faults maxflow", 102, func(t *testing.T) core.Request {
			dg := graph.LayeredDAG(3, 4, 2, 8, 21)
			return core.Request{Op: core.OpMaxFlow, DiGraph: dg, Args: core.Args{Source: 0, Sink: dg.N() - 1}}
		}},
		{"faults mcmf", 103, func(t *testing.T) core.Request {
			dg := graph.NewDi(6)
			dg.MustAddArc(0, 2, 1, 3)
			dg.MustAddArc(0, 3, 1, 1)
			dg.MustAddArc(1, 3, 1, 2)
			dg.MustAddArc(1, 4, 1, 4)
			dg.MustAddArc(3, 5, 1, 1)
			dg.MustAddArc(2, 5, 1, 2)
			dg.MustAddArc(4, 5, 1, 1)
			return core.Request{Op: core.OpMinCostFlow, DiGraph: dg, Args: core.Args{Sigma: []int64{1, 1, 0, 0, 0, -2}}}
		}},
		{"faults euler", 104, func(t *testing.T) core.Request {
			g, err := graph.RandomEulerian(32, 8, 3, 13)
			if err != nil {
				t.Fatal(err)
			}
			return core.Request{Op: core.OpOrient, Graph: g}
		}},
	}
	for _, f := range faults {
		cases = append(cases, goldenCase{f.name + " clean", f.req})
		cases = append(cases, goldenCase{f.name + " drop", func(t *testing.T) core.Request {
			req := f.req(t)
			req.Run.Faults = &cc.FaultPlan{Seed: f.seed, Drop: 0.01}
			return req
		}})
	}
	return cases
}

// answerDigest hashes the bits of a response's answer: math.Float64bits of
// every float, integers as they are, orientation bits as 0/1 bytes.
func answerDigest(resp *core.Response) string {
	h := fnv.New64a()
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	float := func(x float64) { word(math.Float64bits(x)) }
	ints := func(xs []int64) {
		for _, x := range xs {
			word(uint64(x))
		}
	}
	switch {
	case resp.Laplacian != nil:
		for _, x := range resp.Laplacian.X {
			float(x)
		}
	case resp.Sparsifier != nil:
		for _, e := range resp.Sparsifier.H.Edges() {
			word(uint64(e.U))
			word(uint64(e.V))
			float(e.W)
		}
		float(resp.Sparsifier.Alpha)
	case resp.Eulerian != nil:
		for _, o := range resp.Eulerian.Orient {
			if o {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	case resp.MaxFlow != nil:
		word(uint64(resp.MaxFlow.Value))
		ints(resp.MaxFlow.Flow)
	case resp.MinCostFlow != nil:
		word(uint64(resp.MinCostFlow.Cost))
		ints(resp.MinCostFlow.Flow)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGolden runs the corpus and compares every request's round breakdown
// and answer digest with testdata/golden.json. The digests are amd64
// results (elsewhere the compiler may fuse a*b+c), so off amd64 only the
// rounds are compared.
func TestGolden(t *testing.T) {
	var got []goldenEntry
	for _, c := range goldenCases() {
		resp, err := core.Do(c.req(t))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, goldenEntry{Name: c.name, Breakdown: resp.Rounds.Breakdown, Digest: answerDigest(resp)})
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d requests, the corpus has %d", goldenPath, len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		switch {
		case g.Name != w.Name:
			t.Errorf("request %d is %q, %s has %q", i, g.Name, goldenPath, w.Name)
		case g.Breakdown != w.Breakdown:
			t.Errorf("%s: round breakdown differs at %s", g.Name, firstLineDiff(g.Breakdown, w.Breakdown))
		case runtime.GOARCH == "amd64" && g.Digest != w.Digest:
			t.Errorf("%s: answer digest %s, want %s", g.Name, g.Digest, w.Digest)
		}
	}
}

// firstLineDiff names the first line where got and want differ.
func firstLineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: %q, want %q", i+1, gl, wl)
		}
	}
	return "no line"
}
