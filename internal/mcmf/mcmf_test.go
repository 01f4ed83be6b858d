package mcmf

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"lapcc/internal/graph"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

// bipartiteInstance returns a unit-capacity bipartite assignment instance:
// each left vertex supplies one unit, demands land on right vertices that
// are reachable (built from a random perfect-ish assignment so it is
// feasible).
func bipartiteInstance(left, right, degree int, maxCost int64, seed int64) (*graph.DiGraph, []int64) {
	rng := rand.New(rand.NewSource(seed))
	dg := graph.NewDi(left + right)
	sigma := make([]int64, left+right)
	for u := 0; u < left; u++ {
		// One guaranteed arc to a designated partner plus random extras.
		partner := u % right
		dg.MustAddArc(u, left+partner, 1, 1+rng.Int63n(maxCost))
		for d := 1; d < degree; d++ {
			v := rng.Intn(right)
			dg.MustAddArc(u, left+v, 1, 1+rng.Int63n(maxCost))
		}
		sigma[u] = 1
		sigma[left+partner]--
	}
	return dg, sigma
}

func TestSolveOracleSimple(t *testing.T) {
	// Two paths of different costs; demand 1 from 0 to 2.
	dg := graph.NewDi(4)
	dg.MustAddArc(0, 1, 1, 5)
	dg.MustAddArc(1, 2, 1, 5)
	dg.MustAddArc(0, 3, 1, 1)
	dg.MustAddArc(3, 2, 1, 1)
	sigma := []int64{1, 0, -1, 0}
	flow, cost, err := Solve(dg, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 2 {
		t.Fatalf("cost = %d, want 2 (cheap path)", cost)
	}
	if flow[2] != 1 || flow[3] != 1 || flow[0] != 0 {
		t.Fatalf("flow = %v", flow)
	}
}

func TestSolveOracleInfeasible(t *testing.T) {
	dg := graph.NewDi(3)
	dg.MustAddArc(0, 1, 1, 1)
	sigma := []int64{1, 0, -1}
	if _, _, err := Solve(dg, sigma); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

func TestSolveOracleBadDemand(t *testing.T) {
	dg := graph.NewDi(2)
	if _, _, err := Solve(dg, []int64{1}); !errors.Is(err, ErrBadDemand) {
		t.Fatalf("length error = %v", err)
	}
	if _, _, err := Solve(dg, []int64{1, 1}); !errors.Is(err, ErrBadDemand) {
		t.Fatalf("sum error = %v", err)
	}
}

func TestLiftedStructure(t *testing.T) {
	dg := graph.NewDi(3)
	dg.MustAddArc(0, 1, 1, 3)
	dg.MustAddArc(1, 2, 1, 4)
	sigma := []int64{1, 0, -1}
	l, err := newLifted(dg, sigma)
	if err != nil {
		t.Fatal(err)
	}
	// Every Q vertex demands exactly 1; P demands are half the G1 degree.
	for q := 0; q < l.nQ; q++ {
		if l.b[l.nP+q] != 1 {
			t.Fatalf("Q demand = %d", l.b[l.nP+q])
		}
	}
	var bp, bq int64
	for u := 0; u < l.nP; u++ {
		bp += l.b[u]
	}
	for q := 0; q < l.nQ; q++ {
		bq += l.b[l.nP+q]
	}
	if bp != bq {
		t.Fatalf("unbalanced lifting: P=%d Q=%d", bp, bq)
	}
}

func TestLiftedRejectsNonUnit(t *testing.T) {
	dg := graph.NewDi(2)
	dg.MustAddArc(0, 1, 2, 1)
	if _, err := newLifted(dg, []int64{0, 0}); err == nil {
		t.Fatal("non-unit capacity accepted")
	}
}

func TestMinCostFlowMatchesOracleSmall(t *testing.T) {
	dg := graph.NewDi(4)
	dg.MustAddArc(0, 1, 1, 5)
	dg.MustAddArc(1, 2, 1, 5)
	dg.MustAddArc(0, 3, 1, 1)
	dg.MustAddArc(3, 2, 1, 1)
	sigma := []int64{1, 0, -1, 0}
	led := rounds.New()
	res, err := MinCostFlow(dg, sigma, Options{Env: runenv.Env{Ledger: led}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 2 {
		t.Fatalf("cost = %d, want 2", res.Cost)
	}
	if led.Total() == 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestMinCostFlowBipartiteAssignments(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		dg, sigma := bipartiteInstance(6, 5, 3, 9, seed)
		_, wantCost, err := Solve(dg, sigma)
		if err != nil {
			t.Fatalf("seed %d oracle: %v", seed, err)
		}
		res, err := MinCostFlow(dg, sigma, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Cost != wantCost {
			t.Fatalf("seed %d: cost %d != oracle %d", seed, res.Cost, wantCost)
		}
		if got, err := CheckRouting(dg, res.Flow, sigma); err != nil || got != wantCost {
			t.Fatalf("seed %d: returned flow invalid: %d, %v", seed, got, err)
		}
		t.Logf("seed %d: cost=%d progress=%d perturb=%d repairs=%d cancels=%d mu=%.4g",
			seed, res.Cost, res.ProgressIterations, res.Perturbations,
			res.RepairAugmentations, res.CyclesCancelled, res.FinalMu)
	}
}

func TestMinCostFlowGeneralDemands(t *testing.T) {
	// A path-with-chords instance where several vertices supply/absorb.
	dg := graph.NewDi(6)
	dg.MustAddArc(0, 1, 1, 2)
	dg.MustAddArc(1, 2, 1, 2)
	dg.MustAddArc(2, 3, 1, 2)
	dg.MustAddArc(3, 4, 1, 2)
	dg.MustAddArc(4, 5, 1, 2)
	dg.MustAddArc(0, 2, 1, 7)
	dg.MustAddArc(1, 3, 1, 1)
	dg.MustAddArc(2, 4, 1, 1)
	dg.MustAddArc(0, 5, 1, 20)
	sigma := []int64{2, 0, 0, 0, -1, -1}
	_, wantCost, err := Solve(dg, sigma)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MinCostFlow(dg, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != wantCost {
		t.Fatalf("cost %d != oracle %d", res.Cost, wantCost)
	}
}

func TestMinCostFlowInfeasible(t *testing.T) {
	dg := graph.NewDi(3)
	dg.MustAddArc(0, 1, 1, 1)
	sigma := []int64{1, 0, -1}
	if _, err := MinCostFlow(dg, sigma, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

func TestMinCostFlowIPMAblation(t *testing.T) {
	dg, sigma := bipartiteInstance(5, 4, 3, 7, 11)
	with, err := MinCostFlow(dg, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := MinCostFlow(dg, sigma, Options{DisableIPM: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Cost != without.Cost {
		t.Fatalf("ablation changed optimum: %d vs %d", with.Cost, without.Cost)
	}
	if without.ProgressIterations != 0 {
		t.Fatal("IPM disabled but Progress ran")
	}
}

// Property: pipeline matches oracle on random feasible bipartite instances.
func TestMinCostFlowMatchesOracleProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("IPM property test is slow")
	}
	f := func(seed int64) bool {
		dg, sigma := bipartiteInstance(4, 4, 2, 5, seed)
		_, wantCost, err := Solve(dg, sigma)
		if err != nil {
			return true // skip infeasible draws (guaranteed arc makes most feasible)
		}
		res, err := MinCostFlow(dg, sigma, Options{})
		if err != nil {
			return false
		}
		return res.Cost == wantCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
