package ccalgo

import (
	"reflect"
	"testing"

	"lapcc/internal/cc"
	"lapcc/internal/graph"
	"lapcc/internal/rounds"
	"lapcc/internal/transport"
)

// countedMem is the wire-codec backend with its Deliver calls counted.
type countedMem struct {
	*transport.Mem
	calls int
}

func (c *countedMem) Deliver(round, n int, out []cc.Outbox) ([][]cc.Message, cc.DeliveryStats, error) {
	c.calls++
	return c.Mem.Deliver(round, n, out)
}

// eulerRings returns the rings an Euler orientation of g contracts first:
// one slot per directed edge state, owned by the vertex it enters, whose
// successor leaves that vertex along the edge paired with it by adjacency
// position (internal/euler's step 1).
func eulerRings(g *graph.Graph) *Rings {
	m := g.M()
	stateOf := func(edge, entered int) int {
		if g.Edge(edge).V == entered {
			return 2*edge + 1
		}
		return 2 * edge
	}
	partner := make([]int, 2*m)
	for v := 0; v < g.N(); v++ {
		adj := g.Adj(v)
		for k := 0; k+1 < len(adj); k += 2 {
			a, b := adj[k].Edge, adj[k+1].Edge
			partner[stateOf(a, v)], partner[stateOf(b, v)] = b, a
		}
	}
	r := &Rings{CliqueN: g.N(), Owner: make([]int, 2*m), Succ: make([]int, 2*m), Pred: make([]int, 2*m), Alive: make([]bool, 2*m)}
	for st := 0; st < 2*m; st++ {
		e := g.Edge(st / 2)
		v := e.U
		if st%2 == 1 {
			v = e.V
		}
		exit := g.Edge(partner[st])
		w := exit.U
		if w == v {
			w = exit.V
		}
		r.Owner[st], r.Alive[st], r.Succ[st] = v, true, stateOf(partner[st], w)
	}
	for st, next := range r.Succ {
		r.Pred[next] = st
	}
	return r
}

// TestRingsDeliverCalls pins the delivery barriers of the ring layer on the
// first rings of a RandomRegular(64,6) orientation: the Cole-Vishkin shift
// down sends its successor and predecessor exchanges as one routing call,
// and the matching sends each phase's acceptances with the next phase's
// proposals, so over a transport each such pair is one Deliver call. The
// colors, the matching and the ledger equal the in-process run's.
func TestRingsDeliverCalls(t *testing.T) {
	g, err := graph.RandomRegular(64, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		colors []int
		match  []bool
		ledger []rounds.Entry
		calls  [2]int // Deliver calls of ThreeColor, then of MaximalMatching
	}
	run := func(tr *countedMem) outcome {
		r := eulerRings(g)
		var calls func() int
		if tr != nil {
			r.Net.Transport, calls = tr, func() int { return tr.calls }
		} else {
			calls = func() int { return 0 }
		}
		led := rounds.New()
		r.Net.Ledger = led
		colors, err := r.ThreeColor()
		if err != nil {
			t.Fatal(err)
		}
		colorCalls := calls()
		match, err := r.MaximalMatching()
		if err != nil {
			t.Fatal(err)
		}
		return outcome{colors, match, led.Entries(), [2]int{colorCalls, calls() - colorCalls}}
	}
	want := run(nil)
	got := run(&countedMem{Mem: transport.NewMem()})
	// Cole-Vishkin takes three bit-reduction exchanges and three shift-down
	// barriers (six before the pairs shared one); the matching colors again
	// and then needs four barriers for its six exchanges.
	if got.calls != [2]int{6, 10} {
		t.Fatalf("ThreeColor made %d Deliver calls and MaximalMatching %d, want 6 and 10", got.calls[0], got.calls[1])
	}
	got.calls = want.calls
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("over the wire codec:\n%+v\nin process:\n%+v", got, want)
	}
}
