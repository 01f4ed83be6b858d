package mcmf

import (
	"math/rand"
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

func e6Instance(l int, maxCost int64, seed int64) (*graph.DiGraph, []int64) {
	rng := rand.New(rand.NewSource(seed))
	dg := graph.NewDi(2 * l)
	sigma := make([]int64, 2*l)
	for u := 0; u < l; u++ {
		partner := u % l
		dg.MustAddArc(u, l+partner, 1, 1+rng.Int63n(maxCost))
		for d := 1; d < 3; d++ {
			dg.MustAddArc(u, l+rng.Intn(l), 1, 1+rng.Int63n(maxCost))
		}
		sigma[u] = 1
		sigma[l+partner]--
	}
	return dg, sigma
}

func TestE6Sizes(t *testing.T) {
	for _, l := range []int{4, 6, 8, 12} {
		dg, sigma := e6Instance(l, 16, int64(l))
		_, want, err := Solve(dg, sigma)
		if err != nil {
			t.Fatalf("l=%d oracle: %v", l, err)
		}
		led := rounds.New()
		res, err := MinCostFlow(dg, sigma, Options{Env: runenv.Env{Ledger: led}})
		if err != nil {
			t.Fatalf("l=%d: %v", l, err)
		}
		if res.Cost != want {
			t.Fatalf("l=%d: cost %d != %d", l, res.Cost, want)
		}
		t.Logf("l=%d ok: cost=%d prog=%d repairs=%d cancels=%d rounds=%d",
			l, res.Cost, res.ProgressIterations, res.RepairAugmentations, res.CyclesCancelled, led.Total())
	}
}
