package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/rounds"
)

// fourClassWeights weighs edge i of an m-edge graph 2^((i+shift) mod 4):
// four weight classes, each one 15-round sparsifier level on
// RandomRegular(128,6,1). Every shift puts every edge in another class.
func fourClassWeights(m, shift int) []float64 {
	w := make([]float64, m)
	for i := range w {
		w[i] = math.Ldexp(1, (i+shift)%4)
	}
	return w
}

func fourClassGraph(t *testing.T) (*graph.Graph, linalg.Vec) {
	t.Helper()
	g, err := graph.RandomRegular(128, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetWeights(fourClassWeights(g.M(), 0)); err != nil {
		t.Fatal(err)
	}
	b := linalg.NewVec(g.N())
	for i := range b {
		b[i] = float64(i) - float64(g.N()-1)/2
	}
	return g, b
}

// wantBudgetError fails t unless err is a rounds budget error raised at the
// first level of weight class 2^class with used rounds on the ledger.
func wantBudgetError(t *testing.T, err error, class int, used int64) {
	t.Helper()
	var be *rounds.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want a budget error", err)
	}
	if be.Phase != "sparsify-level-0" || be.Used != used {
		t.Fatalf("stopped at %s with %d rounds used, want sparsify-level-0 with %d", be.Phase, be.Used, used)
	}
	if want := fmt.Sprintf("weight class 2^%d:", class); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
}

// TestBudgetStopsAtSparsifierLevels pins that a rounds budget stops a bare
// sparsify call and a solver build at the first sparsifier level boundary
// past the limit, rather than after the whole 60-round build.
func TestBudgetStopsAtSparsifierLevels(t *testing.T) {
	g, b := fourClassGraph(t)
	sparsify := func(ro RunOptions) error { _, err := SparsifyWith(g, ro); return err }
	solve := func(ro RunOptions) error { _, err := SolveLaplacianWith(g, b, 1e-8, ro); return err }
	for _, c := range []struct {
		name  string
		run   func(RunOptions) error
		limit int64
		class int
		used  int64
	}{
		{"sparsify rounds=1", sparsify, 1, 1, 15},
		{"sparsify rounds=5", sparsify, 5, 1, 15},
		{"sparsify rounds=40", sparsify, 40, 3, 45},
		{"solve rounds=5", solve, 5, 1, 15},
		{"solve rounds=40", solve, 40, 3, 45},
	} {
		t.Run(c.name, func(t *testing.T) {
			wantBudgetError(t, c.run(RunOptions{Budget: rounds.NewBudget(c.limit, 0)}), c.class, c.used)
		})
	}
}

// TestSessionBudgetReachesChain pins that a session's budget is the one its
// sparsifier chain rebuilds under: the serving layer builds a pooled session
// under its first request's budget, clears it with SetBudget(nil), and sets
// each later request's budget the same way.
func TestSessionBudgetReachesChain(t *testing.T) {
	g, b := fourClassGraph(t)
	// The build costs 60 rounds and one solve 129: the budget covers both.
	sess, err := NewLaplacianSession(g, SessionOptions{Run: RunOptions{Budget: rounds.NewBudget(189, 0)}, ExactReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(b, 1e-8); err != nil {
		t.Fatal(err)
	}
	if got := sess.Rounds().Total; got != 189 {
		t.Fatalf("build and solve took %d rounds, want 189", got)
	}
	sess.SetBudget(nil)
	if err := sess.Reweight(fourClassWeights(g.M(), 1)); err != nil {
		t.Fatalf("rebuild after SetBudget(nil): %v", err)
	}
	if _, err := sess.Solve(b, 1e-8); err != nil {
		t.Fatal(err)
	}

	w := fourClassWeights(g.M(), 2)
	sess.SetBudget(rounds.NewBudget(1, 0))
	wantBudgetError(t, sess.Reweight(w), 1, 15)
	sess.SetBudget(nil)
	if err := sess.Reweight(w); err != nil {
		t.Fatalf("retried rebuild: %v", err)
	}
	got, err := sess.Solve(b, 1e-8)
	if err != nil {
		t.Fatal(err)
	}

	fg := g.Clone()
	if err := fg.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewLaplacianSession(fg, SessionOptions{ExactReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Solve(b, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%d iterations, a fresh session takes %d", got.Iterations, want.Iterations)
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("x[%d] = %v, a fresh session gives %v", i, got.X[i], want.X[i])
		}
	}
}
