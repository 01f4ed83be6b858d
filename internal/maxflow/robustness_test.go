package maxflow

import (
	"errors"
	"strings"
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/rounds"
)

// TestMaxFlowBudgetExhaustion: a one-round budget must abort the IPM at an
// iteration boundary with the typed error — the progress loop never runs
// unmetered past an exhausted budget.
func TestMaxFlowBudgetExhaustion(t *testing.T) {
	dg := graph.LayeredDAG(3, 4, 2, 8, 21)
	led := rounds.New()
	_, err := MaxFlow(dg, 0, dg.N()-1, Options{
		Ledger: led,
		Budget: rounds.NewBudget(1, 0),
	})
	if !errors.Is(err, rounds.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *rounds.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %T", err)
	}
	if !strings.HasPrefix(be.Phase, "maxflow-iter-") {
		t.Fatalf("exhausted at %q, want an IPM iteration boundary", be.Phase)
	}
}

// TestMaxFlowBudgetAllowsCompletion: a generous budget must not perturb the
// flow at all.
func TestMaxFlowBudgetAllowsCompletion(t *testing.T) {
	dg := graph.LayeredDAG(3, 4, 2, 8, 21)
	s, tt := 0, dg.N()-1
	want, err := MaxFlow(dg, s, tt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	led := rounds.New()
	got, err := MaxFlow(dg, s, tt, Options{
		Ledger: led,
		Budget: rounds.NewBudget(100_000_000, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value {
		t.Fatalf("budgeted value %d != unbudgeted %d", got.Value, want.Value)
	}
	for i := range want.Flow {
		if got.Flow[i] != want.Flow[i] {
			t.Fatalf("budgeted flow diverged at arc %d", i)
		}
	}
}
