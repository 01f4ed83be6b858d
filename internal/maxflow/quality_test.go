package maxflow

import (
	"testing"

	"lapcc/internal/graph"
)

// TestIPMConvergenceQuality pins the paper-shaped behaviour of the IPM on a
// mid-size layered network: the interior point method plus rounding must
// deliver a flow so close to optimal that at most one augmenting path
// remains (Theorem 1.2's final stage needs exactly one).
func TestIPMConvergenceQuality(t *testing.T) {
	dg := graph.LayeredDAG(4, 6, 3, 16, 7)
	s, tt := 0, dg.N()-1
	want, _, err := Dinic(dg, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaxFlow(dg, s, tt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("F*=%d ipmIters=%d budget=%d boosts=%d ipmValue=%.3f outOfRange=%d finalAugs=%d",
		want, res.IPMIterations, res.IterBudget, res.Boostings, res.IPMValue, res.NegativeArcs, res.FinalAugmentations)
	if res.Value != want {
		t.Fatalf("value %d != %d", res.Value, want)
	}
	if res.FinalAugmentations > 1 {
		t.Fatalf("IPM left %d augmenting paths for the final stage; the paper's shape allows 1", res.FinalAugmentations)
	}
	if res.IPMIterations > res.IterBudget {
		t.Fatalf("iterations %d exceeded budget %d", res.IPMIterations, res.IterBudget)
	}
}

// TestIPMGadgetEncoding checks the three-edge initialization gadget
// bookkeeping: the demand equals fstar + sum(capacities) + 2mU and the
// recovered flow is exact on a tiny instance where everything is checkable
// by hand.
func TestIPMGadgetEncoding(t *testing.T) {
	// Single arc s -> t with capacity 3: F* = 3.
	dg := graph.NewDi(2)
	dg.MustAddArc(0, 1, 3, 0)
	res, err := MaxFlow(dg, 0, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 3 || res.Flow[0] != 3 {
		t.Fatalf("value=%d flow=%v, want 3", res.Value, res.Flow)
	}
}
