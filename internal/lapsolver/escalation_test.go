package lapsolver

import (
	"errors"
	"strings"
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/rounds"
	"lapcc/internal/trace"
)

// TestSolveBudgetExhaustion: a tiny round budget must abort the kappa loop
// with the typed error carrying partial stats, never run it unbounded.
func TestSolveBudgetExhaustion(t *testing.T) {
	g, err := graph.ConnectedGNM(48, 140, 17)
	if err != nil {
		t.Fatal(err)
	}
	led := rounds.New()
	s, err := NewSolver(g, Options{Ledger: led, Budget: rounds.NewBudget(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	// Construction already spends rounds, so the 1-round budget is exhausted
	// before the first attempt.
	_, stats, err := s.Solve(meanFreeVec(48, 3), 1e-6)
	if !errors.Is(err, rounds.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *rounds.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %T", err)
	}
	if be.Phase != "lapsolve-attempt-1" {
		t.Fatalf("exhausted at %q, want the first attempt boundary", be.Phase)
	}
	if stats.Attempts != 0 {
		t.Fatalf("ran %d attempts past an exhausted budget", stats.Attempts)
	}
}

// TestSolveBudgetAllowsCompletion: a generous budget must not perturb the
// result at all.
func TestSolveBudgetAllowsCompletion(t *testing.T) {
	g, err := graph.ConnectedGNM(32, 90, 19)
	if err != nil {
		t.Fatal(err)
	}
	b := meanFreeVec(32, 5)
	sFree, err := NewSolver(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := sFree.Solve(b, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	led := rounds.New()
	sBud, err := NewSolver(g, Options{Ledger: led, Budget: rounds.NewBudget(1_000_000, 0)})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sBud.Solve(b, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("budgeted solve diverged at %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestSolveEscalatesToDenseFallback: a small kappa cap rejects every
// iterative attempt. The sparsifier is factored (n <= factorMaxN), so its
// solve is exact and re-running it cannot change the certificate: the
// ladder skips the tighten rung and hands the solve straight to the exact
// dense path — one escalation — and the answer must still certify against
// the reference solution.
func TestSolveEscalatesToDenseFallback(t *testing.T) {
	g, err := graph.ConnectedGNM(40, 120, 23)
	if err != nil {
		t.Fatal(err)
	}
	b := meanFreeVec(40, 7)
	led := rounds.New()
	tr := trace.New()
	s, err := NewSolver(g, Options{
		Ledger:      led,
		Trace:       tr,
		InternalTol: 1e-2, // unused: the factored path has no inner tolerance
		MaxKappa:    16,   // small cap: reach the ladder quickly
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.hf == nil {
		t.Fatal("n=40 sparsifier was not factored")
	}
	x, stats, err := s.Solve(b, 1e-9)
	if err != nil {
		t.Fatalf("ladder failed to recover: %v", err)
	}
	if !stats.DenseFallback {
		t.Fatalf("expected the dense fallback, stats %+v", stats)
	}
	if stats.Escalations != 1 {
		t.Fatalf("escalations %d, want exactly the dense rung", stats.Escalations)
	}
	requireDenseExact(t, g, x, b)
	// The gather cost of the fallback is charged, and the spans are visible.
	tags := map[string]bool{}
	for _, e := range led.Entries() {
		tags[e.Tag] = true
	}
	if !tags["lapsolve-dense-gather"] {
		t.Fatalf("dense gather not charged: %v", tags)
	}
	sawTighten, sawDense := escalationSpans(tr)
	if sawTighten || !sawDense {
		t.Fatalf("escalation spans: tighten=%v dense=%v, want dense only", sawTighten, sawDense)
	}
}

// TestSolveCGPathTightensThenFallsBack: just above the factor cap the
// sparsifier solve is CG, and a hopelessly loose internal tolerance floors
// every iterative attempt; the ladder must first tighten, then hand the
// solve to the exact dense path. The tightening is local to the call: the
// solver's InternalTol is unchanged after two escalating solves, so a
// pooled solver does not carry a compounded tolerance into later solves.
func TestSolveCGPathTightensThenFallsBack(t *testing.T) {
	n := factorMaxN + 1
	g, err := graph.ConnectedGNM(n, 3*n, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	s, err := NewSolver(g, Options{Trace: tr, InternalTol: 1e-2, MaxKappa: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.hf != nil || s.lh == nil {
		t.Fatalf("n=%d sparsifier is above the factor cap; want the CG path", n)
	}
	for seed := int64(7); seed < 9; seed++ {
		b := meanFreeVec(n, seed)
		x, stats, err := s.Solve(b, 1e-9)
		if err != nil {
			t.Fatalf("ladder failed to recover: %v", err)
		}
		if !stats.DenseFallback || stats.Escalations != 2 {
			t.Fatalf("stats %+v, want tighten + dense", stats)
		}
		requireDenseExact(t, g, x, b)
		if s.opts.InternalTol != 1e-2 {
			t.Fatalf("InternalTol is %v after an escalating solve, want 1e-2", s.opts.InternalTol)
		}
	}
	sawTighten, sawDense := escalationSpans(tr)
	if !sawTighten || !sawDense {
		t.Fatalf("escalation spans missing: tighten=%v dense=%v", sawTighten, sawDense)
	}
}

// requireDenseExact checks a dense-fallback answer against the reference
// pseudo-solve.
func requireDenseExact(t *testing.T, g *graph.Graph, x, b linalg.Vec) {
	t.Helper()
	want, err := linalg.LaplacianPseudoSolve(linalg.NewLaplacian(g).Dense(), b)
	if err != nil {
		t.Fatal(err)
	}
	diff := x.Clone()
	diff.AXPY(-1, want)
	if rel := diff.Norm2() / want.Norm2(); rel > 1e-10 {
		t.Fatalf("dense fallback inexact: relative error %v", rel)
	}
}

// escalationSpans reports whether the trace holds escalate-tighten and
// escalate-dense spans.
func escalationSpans(tr *trace.Tracer) (tighten, dense bool) {
	for _, ph := range tr.Phases() {
		if strings.Contains(ph.Path, "escalate-tighten") {
			tighten = true
		}
		if strings.Contains(ph.Path, "escalate-dense") {
			dense = true
		}
	}
	return tighten, dense
}

// TestSolveNoEscalationPinsHistoricalFailure: with the ladder disabled the
// kappa cap is a hard error, as it always was.
func TestSolveNoEscalationPinsHistoricalFailure(t *testing.T) {
	g, err := graph.ConnectedGNM(40, 120, 23)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(g, Options{
		InternalTol:  1e-2,
		MaxKappa:     16,
		NoEscalation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(meanFreeVec(40, 7), 1e-9); err == nil {
		t.Fatal("NoEscalation solve succeeded where the iterative path cannot")
	}
}

// TestSetSparsifierFallsBackToCG: a sparsifier whose shifted Laplacian is
// not positive definite — the edgeless graph on four vertices, where
// L + J/4 = J/4 has rank one — fails to factor with ErrNotPD, and the
// solver keeps the CG path for it.
func TestSetSparsifierFallsBackToCG(t *testing.T) {
	s, err := NewSolver(graph.Complete(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.hf == nil || s.lh != nil {
		t.Fatal("the K4 sparsifier was not factored")
	}
	h := graph.New(4)
	if _, err := linalg.LaplacianCholesky(h); !errors.Is(err, linalg.ErrNotPD) {
		t.Fatalf("LaplacianCholesky error = %v, want ErrNotPD", err)
	}
	s.setSparsifier(h)
	if s.hf != nil || s.lh == nil {
		t.Fatal("a sparsifier that failed to factor did not fall back to CG")
	}
	// The preconditioner solve is now CG: on the edgeless Laplacian it meets
	// zero curvature and reports non-convergence, which the exact factored
	// solve never does.
	err = s.hSolver(1e-13)(linalg.NewVec(4), linalg.Vec{1, -1, 0, 0})
	if !errors.Is(err, linalg.ErrNoConvergence) {
		t.Fatalf("preconditioner solve error = %v, want the CG's ErrNoConvergence", err)
	}
}
