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
	"os"

	"lapcc/internal/cli"
	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/maxflow"
	"lapcc/internal/mcmf"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flowcc:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algo   = flag.String("algo", "maxflow", "maxflow | mincost")
		path   = flag.String("arcs", "", "arc-list file (from to cap [cost])")
		width  = flag.Int("width", 4, "layered generator width (maxflow)")
		layers = flag.Int("layers", 3, "layered generator depth (maxflow)")
		maxCap = flag.Int64("maxcap", 8, "generator capacity bound")
		n      = flag.Int("n", 6, "assignment generator side size (mincost)")
		maxW   = flag.Int64("maxcost", 16, "generator cost bound (mincost)")
		source = flag.Int("source", 0, "source vertex")
		sink   = flag.Int("sink", -1, "sink vertex (default n-1)")
		seed   = flag.Int64("seed", 7, "generator seed")
		rf     cli.Flags
	)
	rf.Register(flag.CommandLine)
	flag.Parse()

	r, err := rf.Open(os.Stdout)
	if err != nil {
		return err
	}
	defer r.Close()

	switch *algo {
	case "maxflow":
		var dg *graph.DiGraph
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
		res, err := core.MaxFlowWith(dg, *source, t, r.Options)
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
		return r.Finish()

	case "mincost":
		var dg *graph.DiGraph
		var sigma []int64
		if *path != "" {
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
		res, err := core.MinCostFlowWith(dg, sigma, r.Options)
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
		return r.Finish()

	default:
		return fmt.Errorf("unknown -algo %q (want maxflow or mincost)", *algo)
	}
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
