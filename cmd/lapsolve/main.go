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
	"os"

	"lapcc/internal/cli"
	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lapsolve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		path   = flag.String("graph", "", "edge-list file (u v w per line)")
		gen    = flag.String("gen", "regular", "generator when no file given: regular|grid|complete")
		n      = flag.Int("n", 128, "generator size")
		eps    = flag.Float64("eps", 1e-8, "target relative error in the L_G norm")
		source = flag.Int("source", 0, "pole with +1 charge")
		sink   = flag.Int("sink", -1, "pole with -1 charge (default n-1)")
		nRHS   = flag.Int("rhs", 1, "number of right-hand sides; >1 solves pole pairs (source, source+i) through one session")
		rf     cli.Flags
	)
	rf.Register(flag.CommandLine)
	flag.Parse()

	r, err := rf.Open(os.Stdout)
	if err != nil {
		return err
	}
	defer r.Close()

	var g *graph.Graph
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

	fmt.Printf("graph: n=%d m=%d; eps=%g\n", g.N(), g.M(), *eps)
	if *nRHS > 1 {
		if err := runSession(g, *source, t, *eps, *nRHS, r.Options); err != nil {
			return err
		}
	} else {
		b := linalg.NewVec(g.N())
		b[*source] = 1
		b[t] = -1
		res, err := core.SolveLaplacianWith(g, b, *eps, r.Options)
		if err != nil {
			return err
		}
		fmt.Printf("x[%d] - x[%d] = %.9f (effective resistance between the poles)\n",
			*source, t, res.X[*source]-res.X[t])
		fmt.Printf("sparsifier: %d edges; chebyshev iterations: %d\n", res.SparsifierEdges, res.Iterations)
		fmt.Println(res.Rounds.Breakdown)
	}
	return r.Finish()
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
