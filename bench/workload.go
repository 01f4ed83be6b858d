package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"lapcc/internal/graph"
	"lapcc/internal/maxflow"
	"lapcc/internal/mcmf"
	"lapcc/internal/serve"
)

// workload is one traffic mix driven against the daemon. The daemon sees
// only the generated request bodies; everything else (schedules, oracle
// answers) stays on the client side.
type workload struct {
	name string
	// clients is the closed-loop client count, and so the connection count.
	clients int
	// transport is the daemon's delivery backend as a lapccd -transport
	// spec ("local" is the engine's in-process merge).
	transport string
	generate  func(seed int64) (*plan, error)
}

// workloads lists every workload; the order is the order BENCHMARK.json
// names them in.
var workloads = []workload{
	{name: "solve-pooled", clients: 1, transport: "local", generate: solvePooled},
	{name: "mixed-cold", clients: 2, transport: "local", generate: mixedCold},
	{name: "flow-local", clients: 1, transport: "local", generate: flowMix},
	// One client: a transport clamps the daemon to MaxInflight=1, so a
	// second client would only measure 429 backoff.
	{name: "flow-tcp", clients: 1, transport: "tcp,procs=2", generate: flowMix},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// instance is one distinct request body plus what the benchmark needs to
// check the daemon's answer to it.
type instance struct {
	op   string
	body []byte
	rhs  int // right-hand sides carried (solve only)
	// check verifies a 200 response body against the precomputed oracle
	// answer and extracts what the benchmark reports.
	check func(raw []byte) (outcome, error)
}

// outcome is what a checked response contributes to the metrics.
type outcome struct {
	rounds int64
	cached bool
}

// plan is a workload's generated inputs: the distinct instances, the
// warm-up pass over them, and the cyclic schedule the measured window
// follows (schedule index i sends instance schedule[i%len(schedule)]).
type plan struct {
	instances []instance
	warm      []int
	schedule  []int
}

func (p *plan) at(i int) int { return p.schedule[i%len(p.schedule)] }

// weightClassWeights returns m weights in [1.1, 1.9): one binary weight
// class, so a pooled topology stays on the chain's exact-reuse tier.
func weightClassWeights(rng *rand.Rand, m int) []float64 {
	w := make([]float64, m)
	for i := range w {
		w[i] = 1.1 + 0.8*rng.Float64()
	}
	return w
}

// dipole returns a right-hand side with +1 and -1 at two distinct vertices.
func dipole(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	a := rng.Intn(n)
	b[a] = 1
	b[(a+1+rng.Intn(n-1))%n] = -1
	return b
}

func regular(rng *rand.Rand, n int) (*graph.Graph, error) {
	return graph.RandomRegular(n, 6, rng.Int63())
}

// solvePooled: 64 solve bodies alternating over 2 RandomRegular(128,6)
// topologies, each with fresh weights in one weight class and one RHS, so
// after the warm-up pass (one request per topology) every request is a pool
// hit on the exact-reuse reweight path.
func solvePooled(seed int64) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	var topo [2]*graph.Graph
	for t := range topo {
		g, err := regular(rng, 128)
		if err != nil {
			return nil, err
		}
		topo[t] = g
	}
	p := &plan{warm: []int{0, 1}}
	for k := 0; k < 64; k++ {
		g := topo[k%2]
		inst, err := solveInstance(g, weightClassWeights(rng, g.M()), [][]float64{dipole(rng, g.N())})
		if err != nil {
			return nil, err
		}
		p.instances = append(p.instances, inst)
		p.schedule = append(p.schedule, k)
	}
	return p, nil
}

// mixedCold: the daemon's default mix (solve 6 : sparsify 1 : orient 1 :
// maxflow 1 : mincostflow 1) at n=128 with 4 RHS per solve. Solve, sparsify
// and orient each cycle through 16 topologies; the pools hold 8, so every
// pool lookup misses whatever the two clients' interleaving.
func mixedCold(seed int64) (*plan, error) {
	const topologies, nets = 16, 4
	rng := rand.New(rand.NewSource(seed))
	p := &plan{}
	add := func(inst instance, err error) error {
		if err != nil {
			return err
		}
		p.instances = append(p.instances, inst)
		return nil
	}
	topo := make([]*graph.Graph, topologies)
	for t := range topo {
		g, err := regular(rng, 128)
		if err != nil {
			return nil, err
		}
		topo[t] = g
	}
	for _, g := range topo {
		rhs := make([][]float64, 4)
		for i := range rhs {
			rhs[i] = dipole(rng, g.N())
		}
		if err := add(solveInstance(g, weightClassWeights(rng, g.M()), rhs)); err != nil {
			return nil, err
		}
	}
	for _, g := range topo {
		if err := add(sparsifyInstance(g, weightClassWeights(rng, g.M()))); err != nil {
			return nil, err
		}
	}
	for _, g := range topo {
		if err := add(orientInstance(g)); err != nil {
			return nil, err
		}
	}
	for k := 0; k < nets; k++ {
		if err := add(maxflowInstance(graph.LayeredDAG(4, 4, 2, 4, rng.Int63()))); err != nil {
			return nil, err
		}
	}
	for k := 0; k < nets; k++ {
		if err := add(mincostInstance(graph.LayeredDAG(4, 4, 2, 1, rng.Int63()))); err != nil {
			return nil, err
		}
	}
	for i := range p.instances {
		p.warm = append(p.warm, i)
	}
	// First instance index and size of each op's block, in mix order.
	mix := []struct{ first, size int }{
		{0, topologies}, {0, topologies}, {0, topologies}, {0, topologies}, {0, topologies}, {0, topologies},
		{topologies, topologies}, {2 * topologies, topologies},
		{3 * topologies, nets}, {3*topologies + nets, nets},
	}
	// Per-op position counters: each op cycles its own block. 160 requests
	// close every op's cycle (96 solves, 16 each of the rest).
	seen := make(map[int]int)
	for r := 0; r < 10*topologies; r++ {
		m := mix[r%len(mix)]
		p.schedule = append(p.schedule, m.first+seen[m.first]%m.size)
		seen[m.first]++
	}
	return p, nil
}

// flowMix: maxflow : mincostflow : orient at 1:1:1 over 16 seeded
// LayeredDAG(4,4,2,4) flow nets, 16 unit-capacity LayeredDAG(4,4,2,1) cost
// nets with a 1/-1 demand, and 16 RandomRegular(64,6) graphs. flow-local
// and flow-tcp share it, so the same seed sends the same bodies to both.
func flowMix(seed int64) (*plan, error) {
	const per = 16
	rng := rand.New(rand.NewSource(seed))
	p := &plan{}
	for k := 0; k < per; k++ {
		inst, err := maxflowInstance(graph.LayeredDAG(4, 4, 2, 4, rng.Int63()))
		if err != nil {
			return nil, err
		}
		p.instances = append(p.instances, inst)
	}
	for k := 0; k < per; k++ {
		inst, err := mincostInstance(graph.LayeredDAG(4, 4, 2, 1, rng.Int63()))
		if err != nil {
			return nil, err
		}
		p.instances = append(p.instances, inst)
	}
	for k := 0; k < per; k++ {
		g, err := regular(rng, 64)
		if err != nil {
			return nil, err
		}
		inst, err := orientInstance(g)
		if err != nil {
			return nil, err
		}
		p.instances = append(p.instances, inst)
	}
	for i := range p.instances {
		p.warm = append(p.warm, i)
	}
	for r := 0; r < 3*per; r++ {
		p.schedule = append(p.schedule, (r%3)*per+(r/3)%per)
	}
	return p, nil
}

// residualTolerance bounds the relative 2-norm residual of a solve answer.
// The daemon certifies eps=1e-8 in the L-norm; on these degree-6 graphs with
// weights below 2 that is far inside 1e-5 in the 2-norm.
const residualTolerance = 1e-5

// weighted is topo's wire form with edge i weighted w[i].
func weighted(topo *graph.Graph, w []float64) serve.WireGraph {
	wg := serve.ToWireGraph(topo)
	for i := range wg.Edges {
		wg.Edges[i][2] = w[i]
	}
	return wg
}

func solveInstance(topo *graph.Graph, w []float64, rhs [][]float64) (instance, error) {
	wg := weighted(topo, w)
	body, err := json.Marshal(serve.SolveRequest{Graph: &wg, RHS: rhs, Eps: 1e-8})
	if err != nil {
		return instance{}, err
	}
	check := func(raw []byte) (outcome, error) {
		var r serve.SolveResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			return outcome{}, err
		}
		if len(r.X) != len(rhs) {
			return outcome{}, fmt.Errorf("solve: %d solutions for %d right-hand sides", len(r.X), len(rhs))
		}
		for i, x := range r.X {
			if res := residual(&wg, x, rhs[i]); !(res <= residualTolerance) {
				return outcome{}, fmt.Errorf("solve: rhs %d relative residual %g", i, res)
			}
		}
		return outcome{rounds: r.Rounds.Total, cached: r.Cached}, nil
	}
	return instance{op: "solve", body: body, rhs: len(rhs), check: check}, nil
}

// residual is ||L x - b|| / ||b|| computed straight from the edge list, so
// checking an answer never calls into linalg (whose kernel counters must
// count daemon work only).
func residual(wg *serve.WireGraph, x, b []float64) float64 {
	if len(x) != wg.N || len(b) != wg.N {
		return math.Inf(1)
	}
	r := make([]float64, wg.N)
	for _, e := range wg.Edges {
		u, v := int(e[0]), int(e[1])
		d := e[2] * (x[u] - x[v])
		r[u] += d
		r[v] -= d
	}
	var num, den float64
	for i := range r {
		d := r[i] - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	return math.Sqrt(num / den)
}

func sparsifyInstance(topo *graph.Graph, w []float64) (instance, error) {
	wg := weighted(topo, w)
	body, err := json.Marshal(serve.SparsifyRequest{Graph: &wg})
	if err != nil {
		return instance{}, err
	}
	check := func(raw []byte) (outcome, error) {
		var r serve.SparsifyResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			return outcome{}, err
		}
		if r.H.N != wg.N {
			return outcome{}, fmt.Errorf("sparsify: sparsifier has n=%d, want %d", r.H.N, wg.N)
		}
		if math.IsInf(r.Alpha, 0) || !(r.Alpha >= 1) {
			return outcome{}, fmt.Errorf("sparsify: alpha %g not a finite value >= 1", r.Alpha)
		}
		return outcome{rounds: r.Rounds.Total, cached: r.Cached}, nil
	}
	return instance{op: "sparsify", body: body, check: check}, nil
}

func orientInstance(g *graph.Graph) (instance, error) {
	wg := serve.ToWireGraph(g)
	body, err := json.Marshal(serve.OrientRequest{Graph: &wg})
	if err != nil {
		return instance{}, err
	}
	check := func(raw []byte) (outcome, error) {
		var r serve.OrientResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			return outcome{}, err
		}
		if len(r.Orient) != len(wg.Edges) {
			return outcome{}, fmt.Errorf("orient: %d bits for %d edges", len(r.Orient), len(wg.Edges))
		}
		bal := make([]int, wg.N)
		for i, e := range wg.Edges {
			u, v := int(e[0]), int(e[1])
			if !r.Orient[i] {
				u, v = v, u
			}
			bal[u]++
			bal[v]--
		}
		for v, d := range bal {
			if d != 0 {
				return outcome{}, fmt.Errorf("orient: vertex %d out-in imbalance %d", v, d)
			}
		}
		return outcome{rounds: r.Rounds.Total}, nil
	}
	return instance{op: "orient", body: body, check: check}, nil
}

func maxflowInstance(dg *graph.DiGraph) (instance, error) {
	s, t := 0, dg.N()-1
	want, _, err := maxflow.Dinic(dg, s, t)
	if err != nil {
		return instance{}, err
	}
	wd := serve.ToWireDiGraph(dg)
	body, err := json.Marshal(serve.MaxFlowRequest{Graph: &wd, Source: s, Sink: t})
	if err != nil {
		return instance{}, err
	}
	check := func(raw []byte) (outcome, error) {
		var r serve.MaxFlowResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			return outcome{}, err
		}
		got, err := maxflow.CheckFlow(dg, r.Flow, s, t)
		if err != nil {
			return outcome{}, err
		}
		if got != want || r.Value != want {
			return outcome{}, fmt.Errorf("maxflow: value %d (flow carries %d), oracle %d", r.Value, got, want)
		}
		return outcome{rounds: r.Rounds.Total}, nil
	}
	return instance{op: "maxflow", body: body, check: check}, nil
}

func mincostInstance(dg *graph.DiGraph) (instance, error) {
	sigma := make([]int64, dg.N())
	sigma[0], sigma[dg.N()-1] = 1, -1
	_, want, err := mcmf.Solve(dg, sigma)
	if err != nil {
		return instance{}, err
	}
	wd := serve.ToWireDiGraph(dg)
	body, err := json.Marshal(serve.MinCostFlowRequest{Graph: &wd, Sigma: sigma})
	if err != nil {
		return instance{}, err
	}
	check := func(raw []byte) (outcome, error) {
		var r serve.MinCostFlowResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			return outcome{}, err
		}
		got, err := mcmf.CheckRouting(dg, r.Flow, sigma)
		if err != nil {
			return outcome{}, err
		}
		if got != want || r.Cost != want {
			return outcome{}, fmt.Errorf("mincostflow: cost %d (flow costs %d), oracle %d", r.Cost, got, want)
		}
		return outcome{rounds: r.Rounds.Total}, nil
	}
	return instance{op: "mincostflow", body: body, check: check}, nil
}
