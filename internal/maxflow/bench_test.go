package maxflow

import (
	"testing"

	"lapcc/internal/electrical"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
)

// The session/fresh-build pair behind BENCH_solver.json: the same full IPM
// run, differing only in whether each iteration's electrical solve reuses
// the build-once session or rebuilds the support graph and Laplacian from
// scratch. Charged rounds are identical by construction (see
// TestMaxFlowSessionMatchesFreshBuild); the benchmark isolates the
// wall-clock and allocation win.

func benchIPMInstance() (*graph.DiGraph, int, int) {
	return graph.RandomDiGraph(96, 800, 23, 1, 9), 0, 95
}

func benchIPM(b *testing.B, fresh bool) {
	dg, s, t := benchIPMInstance()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := MaxFlow(dg, s, t, Options{FreshBuild: fresh})
		if err != nil {
			b.Fatal(err)
		}
		if res.Value == 0 {
			b.Fatal("degenerate instance")
		}
	}
}

func BenchmarkIPMSession(b *testing.B)    { benchIPM(b, false) }
func BenchmarkIPMFreshBuild(b *testing.B) { benchIPM(b, true) }

// The solve-sequence pair isolates exactly what the session layer replaces:
// the per-iteration support-graph + Laplacian construction and electrical
// solve. A real run's (w, b) schedule is captured once through the
// solveHook seam, then replayed through each path. The whole-run pair above
// includes the one-time final rounding stage, which dominates wall clock and
// masks the per-iteration win.

type solveCall struct {
	w    []float64
	b    linalg.Vec
	slot string
}

func captureSolveSequence(b *testing.B) (*ipmState, []solveCall) {
	dg, s, t := benchIPMInstance()
	opts := Options{}
	fstar, _, err := Dinic(dg, s, t)
	if err != nil {
		b.Fatal(err)
	}
	st, err := newIPMState(dg, s, t, fstar, opts)
	if err != nil {
		b.Fatal(err)
	}
	var seq []solveCall
	st.solveHook = func(w []float64, rhs linalg.Vec, slot string) {
		wc := make([]float64, len(w))
		copy(wc, w)
		seq = append(seq, solveCall{wc, rhs.Clone(), slot})
	}
	res := &Result{Flow: make([]int64, dg.M())}
	if err := st.run(res); err != nil {
		b.Fatal(err)
	}
	if len(seq) == 0 {
		b.Fatal("captured no solves")
	}
	freshState := func() *ipmState {
		st, err := newIPMState(dg, s, t, fstar, opts)
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	return freshState(), seq
}

func BenchmarkIPMSolveSequenceSession(b *testing.B) {
	proto, seq := captureSolveSequence(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := *proto
		st.sess = nil // build once per replay, reweight thereafter
		for _, c := range seq {
			if _, err := st.sessionSolve(c.w, c.b, c.slot); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkIPMSolveSequenceFreshBuild(b *testing.B) {
	proto, seq := captureSolveSequence(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range seq {
			if _, err := proto.solveFreshBaseline(c.w, c.b); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The serving configuration: same captured workload through an
// electrical.Session with WarmStart, each solve seeded from the previous
// potentials of its slot. Answers hold the same eps certificate and the
// Theorem 1.1 round formula charges per solve call, so charged totals match
// the cold paths; only wall clock moves. The shipping IPM keeps WarmStart
// off so its trajectory stays bit-identical to the fresh build (see
// sessionSolve); this benchmark is the repeated-solve workload where that
// constraint does not apply.
func BenchmarkIPMSolveSequenceSessionWarm(b *testing.B) {
	proto, seq := captureSolveSequence(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := electrical.NewSession(proto.supportGraph(seq[0].w), electrical.SessionOptions{WarmStart: true})
		if err != nil {
			b.Fatal(err)
		}
		for j, c := range seq {
			if j > 0 {
				if err := sess.Reweight(c.w); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := sess.Potentials(c.b, solveEps, c.slot); err != nil {
				b.Fatal(err)
			}
		}
	}
}
