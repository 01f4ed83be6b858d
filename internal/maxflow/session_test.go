package maxflow

import (
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

// The session path (build the electrical session once, reweight per
// iteration) must be a pure wall-clock optimization over the FreshBuild
// oracle: identical flow value, a feasible flow, and an identical charged
// round total across the full IPM run.
func TestMaxFlowSessionMatchesFreshBuild(t *testing.T) {
	cases := []struct {
		name string
		dg   *graph.DiGraph
		s, t int
	}{
		{"random-12", graph.RandomDiGraph(12, 40, 9, 1, 5), 0, 11},
		{"random-16", graph.RandomDiGraph(16, 60, 41, 1, 8), 0, 15},
		{"layered", layeredDAG(4, 3, 7), 0, 4*3 + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sessLed := rounds.New()
			sess, err := MaxFlow(tc.dg, tc.s, tc.t, Options{Env: runenv.Env{Ledger: sessLed}})
			if err != nil {
				t.Fatal(err)
			}
			freshLed := rounds.New()
			fresh, err := MaxFlow(tc.dg, tc.s, tc.t, Options{Env: runenv.Env{Ledger: freshLed}, FreshBuild: true})
			if err != nil {
				t.Fatal(err)
			}

			if sess.Value != fresh.Value {
				t.Fatalf("session value %d != fresh-build value %d", sess.Value, fresh.Value)
			}
			if got, err := CheckFlow(tc.dg, sess.Flow, tc.s, tc.t); err != nil || got != sess.Value {
				t.Fatalf("session flow infeasible: value %d, err %v", got, err)
			}
			if sc, fc := sessLed.TotalOf(rounds.Charged), freshLed.TotalOf(rounds.Charged); sc != fc {
				t.Fatalf("charged rounds differ: session %d, fresh build %d", sc, fc)
			}
			if sm, fm := sessLed.TotalOf(rounds.Measured), freshLed.TotalOf(rounds.Measured); sm != fm {
				t.Fatalf("measured rounds differ: session %d, fresh build %d", sm, fm)
			}
			if sess.IPMIterations != fresh.IPMIterations {
				t.Fatalf("iteration trajectories diverged: session %d, fresh build %d",
					sess.IPMIterations, fresh.IPMIterations)
			}
		})
	}
}

// layeredDAG builds the layered DAG of TestMaxFlowIPMLayeredDAG's shape:
// source -> layer_1 -> ... -> layer_k -> sink with full bipartite stages.
func layeredDAG(layers, width int, cap int64) *graph.DiGraph {
	n := layers*width + 2
	dg := graph.NewDi(n)
	src, snk := 0, n-1
	for j := 0; j < width; j++ {
		dg.MustAddArc(src, 1+j, cap, 0)
	}
	for l := 0; l+1 < layers; l++ {
		for a := 0; a < width; a++ {
			for b := 0; b < width; b++ {
				dg.MustAddArc(1+l*width+a, 1+(l+1)*width+b, cap, 0)
			}
		}
	}
	for j := 0; j < width; j++ {
		dg.MustAddArc(1+(layers-1)*width+j, snk, cap, 0)
	}
	return dg
}
