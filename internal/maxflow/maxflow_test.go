package maxflow

import (
	"errors"
	"testing"
	"testing/quick"

	"lapcc/internal/graph"
	"lapcc/internal/rounds"
)

func TestDinicKnownValue(t *testing.T) {
	// Classic example: value 19... build a small network with known answer.
	dg := graph.NewDi(6)
	dg.MustAddArc(0, 1, 10, 0)
	dg.MustAddArc(0, 2, 10, 0)
	dg.MustAddArc(1, 2, 2, 0)
	dg.MustAddArc(1, 3, 4, 0)
	dg.MustAddArc(1, 4, 8, 0)
	dg.MustAddArc(2, 4, 9, 0)
	dg.MustAddArc(3, 5, 10, 0)
	dg.MustAddArc(4, 3, 6, 0)
	dg.MustAddArc(4, 5, 10, 0)
	value, flows, err := Dinic(dg, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if value != 19 {
		t.Fatalf("Dinic value = %d, want 19", value)
	}
	if got, err := CheckFlow(dg, flows, 0, 5); err != nil || got != 19 {
		t.Fatalf("CheckFlow = %d, %v", got, err)
	}
}

func TestDinicDisconnected(t *testing.T) {
	dg := graph.NewDi(4)
	dg.MustAddArc(0, 1, 5, 0)
	dg.MustAddArc(2, 3, 5, 0)
	value, _, err := Dinic(dg, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if value != 0 {
		t.Fatalf("value = %d, want 0", value)
	}
}

func TestDinicBadEndpoints(t *testing.T) {
	dg := graph.NewDi(3)
	if _, _, err := Dinic(dg, 1, 1); !errors.Is(err, ErrBadEndpoints) {
		t.Fatalf("error = %v, want ErrBadEndpoints", err)
	}
	if _, _, err := Dinic(dg, 0, 5); !errors.Is(err, ErrBadEndpoints) {
		t.Fatalf("error = %v, want ErrBadEndpoints", err)
	}
}

func TestFordFulkersonMatchesDinic(t *testing.T) {
	dg := graph.RandomDiGraph(12, 40, 9, 1, 5)
	led := rounds.New()
	ff, err := FordFulkerson(dg, 0, 11, led)
	if err != nil {
		t.Fatal(err)
	}
	dv, _, err := Dinic(dg, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if ff.Value != dv {
		t.Fatalf("FF value %d != Dinic %d", ff.Value, dv)
	}
	if ff.Rounds != int64(ff.Augmentations)*rounds.APSPRounds(12) {
		t.Fatalf("FF rounds %d inconsistent with %d augmentations", ff.Rounds, ff.Augmentations)
	}
	if led.Total() != ff.Rounds {
		t.Fatalf("ledger %d != result rounds %d", led.Total(), ff.Rounds)
	}
}

func TestCheckFlowRejections(t *testing.T) {
	dg := graph.NewDi(3)
	dg.MustAddArc(0, 1, 2, 0)
	dg.MustAddArc(1, 2, 2, 0)
	if _, err := CheckFlow(dg, []int64{3, 3}, 0, 2); err == nil {
		t.Fatal("over-capacity flow accepted")
	}
	if _, err := CheckFlow(dg, []int64{-1, -1}, 0, 2); err == nil {
		t.Fatal("negative flow accepted")
	}
	if _, err := CheckFlow(dg, []int64{2, 1}, 0, 2); err == nil {
		t.Fatal("non-conserving flow accepted")
	}
	if _, err := CheckFlow(dg, []int64{1}, 0, 2); err == nil {
		t.Fatal("wrong length accepted")
	}
}

func TestMaxFlowIPMLayeredDAG(t *testing.T) {
	dg := graph.LayeredDAG(3, 4, 2, 8, 21)
	s, tt := 0, dg.N()-1
	want, _, err := Dinic(dg, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	led := rounds.New()
	res, err := MaxFlow(dg, s, tt, Options{Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want {
		t.Fatalf("IPM value %d != Dinic %d", res.Value, want)
	}
	if got, err := CheckFlow(dg, res.Flow, s, tt); err != nil || got != want {
		t.Fatalf("returned flow invalid: value %d err %v", got, err)
	}
	if res.IPMIterations == 0 {
		t.Fatal("IPM did no iterations")
	}
	if led.Total() == 0 {
		t.Fatal("no rounds recorded")
	}
	t.Logf("layered: F*=%d ipmIters=%d/%d boosts=%d ipmValue=%.2f negArcs=%d finalAugs=%d rounds=%d",
		want, res.IPMIterations, res.IterBudget, res.Boostings, res.IPMValue, res.NegativeArcs, res.FinalAugmentations, led.Total())
}

func TestMaxFlowIPMRandomDirected(t *testing.T) {
	dg := graph.RandomDiGraph(10, 30, 5, 1, 31)
	s, tt := 0, 9
	want, _, err := Dinic(dg, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaxFlow(dg, s, tt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want {
		t.Fatalf("IPM value %d != Dinic %d", res.Value, want)
	}
	if _, err := CheckFlow(dg, res.Flow, s, tt); err != nil {
		t.Fatalf("flow invalid: %v", err)
	}
}

func TestMaxFlowZeroFlow(t *testing.T) {
	dg := graph.NewDi(4)
	dg.MustAddArc(1, 0, 5, 0) // only arc points away from t-side
	res, err := MaxFlow(dg, 0, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Fatalf("value = %d, want 0", res.Value)
	}
}

func TestMaxFlowUnitCapacities(t *testing.T) {
	dg := graph.LayeredDAG(2, 5, 2, 1, 41)
	s, tt := 0, dg.N()-1
	want, _, err := Dinic(dg, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaxFlow(dg, s, tt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want {
		t.Fatalf("value %d != %d", res.Value, want)
	}
}

func TestMaxFlowBoostingAblation(t *testing.T) {
	dg := graph.LayeredDAG(3, 3, 2, 6, 51)
	s, tt := 0, dg.N()-1
	with, err := MaxFlow(dg, s, tt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := MaxFlow(dg, s, tt, Options{DisableBoosting: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Value != without.Value {
		t.Fatalf("ablation changed the answer: %d vs %d", with.Value, without.Value)
	}
	if without.Boostings != 0 {
		t.Fatalf("boosting disabled but %d boostings recorded", without.Boostings)
	}
}

func TestTrivialRoundsPositive(t *testing.T) {
	dg := graph.RandomDiGraph(10, 30, 5, 1, 61)
	if TrivialRounds(dg) < 1 {
		t.Fatal("trivial baseline should cost at least one round")
	}
}

// Property: the IPM pipeline matches the Dinic oracle on random layered
// networks.
func TestMaxFlowMatchesOracleProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("IPM property test is slow")
	}
	f := func(seed int64) bool {
		dg := graph.LayeredDAG(2, 3, 2, 4, seed)
		s, tt := 0, dg.N()-1
		want, _, err := Dinic(dg, s, tt)
		if err != nil {
			return false
		}
		res, err := MaxFlow(dg, s, tt, Options{})
		if err != nil {
			return false
		}
		if res.Value != want {
			return false
		}
		_, err = CheckFlow(dg, res.Flow, s, tt)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxFlowGridNetwork(t *testing.T) {
	dg := graph.GridFlowNetwork(3, 3, 6, 71)
	s, tt := 0, dg.N()-1
	want, _, err := Dinic(dg, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaxFlow(dg, s, tt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want {
		t.Fatalf("grid network: IPM value %d != Dinic %d", res.Value, want)
	}
	if _, err := CheckFlow(dg, res.Flow, s, tt); err != nil {
		t.Fatal(err)
	}
}
