package mcmf

import (
	"testing"

	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

// The session path (build the lifted support's electrical session once,
// reweight per Progress iteration) must be a pure wall-clock optimization
// over the FreshBuild oracle: identical cost, identical flow, identical
// charged and measured round totals across the full run.
func TestMinCostFlowSessionMatchesFreshBuild(t *testing.T) {
	cases := []struct {
		name string
		l, r int
		deg  int
		cost int64
		seed int64
	}{
		{"bipartite-6x6", 6, 6, 3, 9, 31},
		{"bipartite-8x5", 8, 5, 2, 20, 32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dg, sigma := bipartiteInstance(tc.l, tc.r, tc.deg, tc.cost, tc.seed)

			sessLed := rounds.New()
			sess, err := MinCostFlow(dg, sigma, Options{Env: runenv.Env{Ledger: sessLed}})
			if err != nil {
				t.Fatal(err)
			}
			freshLed := rounds.New()
			fresh, err := MinCostFlow(dg, sigma, Options{Env: runenv.Env{Ledger: freshLed}, FreshBuild: true})
			if err != nil {
				t.Fatal(err)
			}

			if sess.Cost != fresh.Cost {
				t.Fatalf("session cost %d != fresh-build cost %d", sess.Cost, fresh.Cost)
			}
			for i := range sess.Flow {
				if sess.Flow[i] != fresh.Flow[i] {
					t.Fatalf("flow[%d]: session %d != fresh build %d", i, sess.Flow[i], fresh.Flow[i])
				}
			}
			if sc, fc := sessLed.TotalOf(rounds.Charged), freshLed.TotalOf(rounds.Charged); sc != fc {
				t.Fatalf("charged rounds differ: session %d, fresh build %d", sc, fc)
			}
			if sm, fm := sessLed.TotalOf(rounds.Measured), freshLed.TotalOf(rounds.Measured); sm != fm {
				t.Fatalf("measured rounds differ: session %d, fresh build %d", sm, fm)
			}
			if sess.ProgressIterations != fresh.ProgressIterations {
				t.Fatalf("iteration trajectories diverged: session %d, fresh build %d",
					sess.ProgressIterations, fresh.ProgressIterations)
			}
		})
	}
}
