package maxflow

import (
	"math"
	"testing"

	"lapcc/internal/graph"
)

func newTestState(t *testing.T, dg *graph.DiGraph, s, tt int, fstar int64) *ipmState {
	t.Helper()
	st, err := newIPMState(dg, s, tt, fstar, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestGadgetConstructionShape(t *testing.T) {
	// Arc (1,2) away from s=0,t=3: full three-edge gadget.
	dg := graph.NewDi(4)
	dg.MustAddArc(1, 2, 5, 0)
	st := newTestState(t, dg, 0, 3, 0)
	// edges: original (1,2), gadget (s=0,2), gadget (1,t=3), 1 precon (t,s).
	if st.total != 4 {
		t.Fatalf("total edges = %d, want 4", st.total)
	}
	if st.from[1] != 0 || st.to[1] != 2 {
		t.Fatalf("gadget 1 = (%d,%d), want (0,2)", st.from[1], st.to[1])
	}
	if st.from[2] != 1 || st.to[2] != 3 {
		t.Fatalf("gadget 2 = (%d,%d), want (1,3)", st.from[2], st.to[2])
	}
	if st.from[3] != 3 || st.to[3] != 0 {
		t.Fatalf("precon = (%d,%d), want (3,0)", st.from[3], st.to[3])
	}
	// Demand = fstar + sum(cap) + 2mU = 0 + 5 + 2*1*5.
	if st.demand != 15 {
		t.Fatalf("demand = %v, want 15", st.demand)
	}
}

func TestGadgetDropsSelfLoops(t *testing.T) {
	// Arc out of s: the (s, head) gadget edge survives but (s,t)=(from=s
	// case is fine); arc INTO s: the (s, head=s) edge is a self-loop and
	// must be dropped.
	dg := graph.NewDi(3)
	dg.MustAddArc(1, 0, 4, 0) // into s=0
	st := newTestState(t, dg, 0, 2, 0)
	for i := 0; i < st.total; i++ {
		if st.from[i] == st.to[i] {
			t.Fatalf("edge %d is a self-loop (%d,%d)", i, st.from[i], st.to[i])
		}
	}
	// original + (1, t) gadget + precon = 3 edges; the (s, s) gadget gone.
	if st.total != 3 {
		t.Fatalf("total = %d, want 3", st.total)
	}
	// Demand still counts the dropped gadget's shipping.
	if st.demand != 4+2*4 {
		t.Fatalf("demand = %v, want 12", st.demand)
	}
}

func TestCancelCyclesRemovesCirculation(t *testing.T) {
	// Triangle circulation on the original arcs must cancel to zero.
	dg := graph.NewDi(3)
	dg.MustAddArc(0, 1, 10, 0)
	dg.MustAddArc(1, 2, 10, 0)
	dg.MustAddArc(2, 0, 10, 0)
	st := newTestState(t, dg, 0, 2, 0)
	st.f[0], st.f[1], st.f[2] = 3, 3, 3 // pure circulation
	st.cancelCycles(1e-9)
	for i := 0; i < 3; i++ {
		if math.Abs(st.f[i]) > 1e-9 {
			t.Fatalf("arc %d kept %v after cancellation", i, st.f[i])
		}
	}
}

func TestCancelCyclesPreservesDivergence(t *testing.T) {
	dg := graph.LayeredDAG(2, 3, 2, 5, 9)
	s, tt := 0, dg.N()-1
	st := newTestState(t, dg, s, tt, 3)
	// Random-ish flow with a deliberate 2-cycle between an original arc
	// used backward and forward mass elsewhere.
	for i := 0; i < st.total; i++ {
		st.f[i] = float64((i%5))*0.25 - 0.5
		// stay strictly inside the box
		if st.f[i] >= st.hi[i] {
			st.f[i] = st.hi[i] - 0.25
		}
		if st.f[i] <= st.lo[i] {
			st.f[i] = st.lo[i] + 0.25
		}
	}
	div := func() []float64 {
		d := make([]float64, dg.N())
		for i := 0; i < st.total; i++ {
			d[st.from[i]] -= st.f[i]
			d[st.to[i]] += st.f[i]
		}
		return d
	}
	before := div()
	st.cancelCycles(1e-9)
	after := div()
	for v := range before {
		if math.Abs(before[v]-after[v]) > 1e-6 {
			t.Fatalf("divergence changed at %d: %v -> %v", v, before[v], after[v])
		}
	}
}

func TestRecoveredOnExactEncoding(t *testing.T) {
	// Encode g = 3 on a single arc of capacity 5 through the gadget:
	// f(orig) = g - u = -2, gadget edges at +u, precon saturated s->t.
	dg := graph.NewDi(2)
	dg.MustAddArc(0, 1, 5, 0)
	st := newTestState(t, dg, 0, 1, 3)
	st.f[0] = 3 - 5
	value, overflow := st.recovered()
	if overflow != 0 {
		t.Fatalf("overflow = %v", overflow)
	}
	if value != 3 {
		t.Fatalf("recovered value = %v, want 3", value)
	}
}

func TestMaxSubflowExtractsBestLegalFlow(t *testing.T) {
	dg := graph.NewDi(4)
	a0 := dg.MustAddArc(0, 1, 5, 0)
	a1 := dg.MustAddArc(1, 3, 5, 0)
	a2 := dg.MustAddArc(0, 2, 5, 0)
	a3 := dg.MustAddArc(2, 3, 5, 0)
	// Candidate: broken conservation (arc a2 has 3 but a3 only 1).
	candidate := make([]int64, dg.M())
	candidate[a0], candidate[a1] = 2, 2
	candidate[a2], candidate[a3] = 3, 1
	out := maxSubflow(dg, candidate, 0, 3)
	if _, err := CheckFlow(dg, out, 0, 3); err != nil {
		t.Fatal(err)
	}
	var value int64
	for _, ai := range dg.Out(0) {
		value += out[ai]
	}
	if value != 3 { // 2 via top path + 1 via bottom
		t.Fatalf("extracted value %d, want 3", value)
	}
}

func TestMaxSubflowClampsOutOfRange(t *testing.T) {
	dg := graph.NewDi(2)
	dg.MustAddArc(0, 1, 2, 0)
	out := maxSubflow(dg, []int64{99}, 0, 1) // above capacity
	if out[0] != 2 {
		t.Fatalf("flow %d, want clamped 2", out[0])
	}
	out = maxSubflow(dg, []int64{-5}, 0, 1) // negative
	if out[0] != 0 {
		t.Fatalf("flow %d, want 0", out[0])
	}
}
