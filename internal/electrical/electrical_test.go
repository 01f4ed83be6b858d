package electrical

import (
	"math"
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

func TestSeriesResistors(t *testing.T) {
	// Path of 3 unit resistors: R_eff(0,3) = 3.
	nw, err := NewNetwork(graph.Path(4), runenv.Env{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := nw.EffectiveResistance(0, 3, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-3) > 1e-8 {
		t.Fatalf("R_eff = %v, want 3", r)
	}
}

func TestParallelResistors(t *testing.T) {
	// Two parallel unit resistors: R_eff = 1/2.
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 1, 1)
	nw, err := NewNetwork(g, runenv.Env{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := nw.EffectiveResistance(0, 1, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.5) > 1e-8 {
		t.Fatalf("R_eff = %v, want 0.5", r)
	}
}

func TestWheatstoneBridgeBalance(t *testing.T) {
	// Balanced Wheatstone bridge: no current through the bridge edge.
	//   0 -1- 1 -1- 3,  0 -1- 2 -1- 3, bridge 1-2.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 3, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(2, 3, 1)
	bridge := g.MustAddEdge(1, 2, 5)
	nw, err := NewNetwork(g, runenv.Env{})
	if err != nil {
		t.Fatal(err)
	}
	phi, err := nw.PolePotentials(0, 3, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	currents := nw.Currents(phi)
	if math.Abs(currents[bridge]) > 1e-8 {
		t.Fatalf("balanced bridge carries %v", currents[bridge])
	}
	// R_eff of the balanced bridge = 1 (two series pairs in parallel).
	if r := phi[0] - phi[3]; math.Abs(r-1) > 1e-8 {
		t.Fatalf("R_eff = %v, want 1", r)
	}
}

func TestKirchhoffCurrentLaw(t *testing.T) {
	g, err := graph.RandomRegular(40, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(g, runenv.Env{})
	if err != nil {
		t.Fatal(err)
	}
	phi, err := nw.PolePotentials(0, 39, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	currents := nw.Currents(phi)
	div := make([]float64, g.N())
	for i, e := range g.Edges() {
		div[e.U] -= currents[i]
		div[e.V] += currents[i]
	}
	for v := 0; v < g.N(); v++ {
		want := 0.0
		if v == 0 {
			want = -1
		}
		if v == 39 {
			want = 1
		}
		if math.Abs(div[v]-want) > 1e-7 {
			t.Fatalf("KCL violated at %d: %v (want %v)", v, div[v], want)
		}
	}
}

func TestEnergyEqualsThomson(t *testing.T) {
	// Energy of the electrical flow equals R_eff under unit current
	// (Thomson's principle at the optimum).
	g := graph.Grid(5, 5)
	nw, err := NewNetwork(g, runenv.Env{})
	if err != nil {
		t.Fatal(err)
	}
	phi, err := nw.PolePotentials(0, 24, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	reff := phi[0] - phi[24]
	if e := nw.Energy(phi); math.Abs(e-reff) > 1e-7 {
		t.Fatalf("energy %v != R_eff %v", e, reff)
	}
}

func TestRayleighMonotonicity(t *testing.T) {
	// Adding an edge can only lower effective resistance.
	base := graph.Grid(4, 4)
	nwA, err := NewNetwork(base, runenv.Env{})
	if err != nil {
		t.Fatal(err)
	}
	rA, err := nwA.EffectiveResistance(0, 15, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	richer := base.Clone()
	richer.MustAddEdge(0, 15, 1)
	nwB, err := NewNetwork(richer, runenv.Env{})
	if err != nil {
		t.Fatal(err)
	}
	rB, err := nwB.EffectiveResistance(0, 15, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if rB > rA+1e-9 {
		t.Fatalf("adding an edge raised R_eff: %v -> %v", rA, rB)
	}
}

func TestMaxCurrentEdgeAndErrors(t *testing.T) {
	g := graph.Path(3)
	nw, err := NewNetwork(g, runenv.Env{Ledger: rounds.New()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.PolePotentials(1, 1, 1e-6); err == nil {
		t.Fatal("same poles accepted")
	}
	phi, err := nw.PolePotentials(0, 2, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	idx, mag := nw.MaxCurrentEdge(phi)
	if idx < 0 || math.Abs(mag-1) > 1e-8 {
		t.Fatalf("max edge %d carrying %v, want 1 (series circuit)", idx, mag)
	}
	var zero linalg.Vec = linalg.NewVec(3)
	if i, m := nw.MaxCurrentEdge(zero); i != -1 || m != 0 {
		t.Fatalf("zero potentials gave %d, %v", i, m)
	}
}
