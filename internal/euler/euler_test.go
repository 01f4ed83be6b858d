package euler

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"lapcc/internal/graph"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

func TestOrientRejectsOddDegree(t *testing.T) {
	g := graph.Path(4)
	if _, _, err := Orient(g, nil, Options{}); !errors.Is(err, ErrNotEulerian) {
		t.Fatalf("error = %v, want ErrNotEulerian", err)
	}
}

func TestOrientEmptyGraph(t *testing.T) {
	g := graph.New(5)
	orient, st, err := Orient(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(orient) != 0 || st.States != 0 {
		t.Fatalf("empty graph gave %v, %+v", orient, st)
	}
}

func TestOrientSingleCycle(t *testing.T) {
	for _, n := range []int{3, 4, 5, 8, 17, 64} {
		g, err := graph.Cycle(n)
		if err != nil {
			t.Fatal(err)
		}
		orient, _, err := Orient(g, nil, Options{Env: runenv.Env{Ledger: rounds.New()}})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if v := CheckOrientation(g, orient); v != -1 {
			t.Fatalf("n=%d: vertex %d unbalanced", n, v)
		}
	}
}

func TestOrientParallelEdges(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 1, 1)
	orient, _, err := Orient(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := CheckOrientation(g, orient); v != -1 {
		t.Fatalf("vertex %d unbalanced", v)
	}
	if orient[0] == orient[1] {
		t.Fatal("parallel edge pair must be oriented oppositely")
	}
}

func TestOrientUnionOfCycles(t *testing.T) {
	g, err := graph.RandomEulerian(30, 8, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	led := rounds.New()
	orient, st, err := Orient(g, nil, Options{Env: runenv.Env{Ledger: led}})
	if err != nil {
		t.Fatal(err)
	}
	if v := CheckOrientation(g, orient); v != -1 {
		t.Fatalf("vertex %d unbalanced", v)
	}
	if st.Iterations == 0 || led.Total() == 0 {
		t.Fatalf("suspicious stats: %+v, rounds %d", st, led.Total())
	}
}

func TestOrientCompleteGraphOddN(t *testing.T) {
	// K_n for odd n is Eulerian (all degrees n-1 even).
	g := graph.Complete(9)
	orient, _, err := Orient(g, nil, Options{Env: runenv.Env{Ledger: rounds.New()}})
	if err != nil {
		t.Fatal(err)
	}
	if v := CheckOrientation(g, orient); v != -1 {
		t.Fatalf("vertex %d unbalanced", v)
	}
}

func TestOrientCostGuarantee(t *testing.T) {
	// With signed costs, every implicit cycle is oriented so its total
	// signed cost is <= 0; summing over cycles, the whole orientation's
	// signed cost must be <= 0.
	rng := rand.New(rand.NewSource(7))
	g, err := graph.RandomEulerian(24, 6, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	cost := make([]int64, g.M())
	for i := range cost {
		cost[i] = rng.Int63n(41) - 20
	}
	orient, _, err := Orient(g, cost, Options{Env: runenv.Env{Ledger: rounds.New()}})
	if err != nil {
		t.Fatal(err)
	}
	if v := CheckOrientation(g, orient); v != -1 {
		t.Fatalf("vertex %d unbalanced", v)
	}
	var total int64
	for i := range cost {
		if orient[i] {
			total += cost[i]
		} else {
			total -= cost[i]
		}
	}
	if total > 0 {
		t.Fatalf("oriented signed cost %d > 0", total)
	}
}

func TestOrientForcedEdgeDirection(t *testing.T) {
	// A strongly negative cost on one edge forces its orientation U->V
	// (the flow-rounding rule for the (t,s) edge).
	g, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	cost := make([]int64, g.M())
	cost[2] = -(1 << 40)
	orient, _, err := Orient(g, cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !orient[2] {
		t.Fatal("edge with huge negative U->V cost was oriented V->U")
	}
	if v := CheckOrientation(g, orient); v != -1 {
		t.Fatalf("vertex %d unbalanced", v)
	}
}

func TestOrientRoundsScaling(t *testing.T) {
	// Theorem 1.4: O(log n log* n) rounds. Doubling n repeatedly must grow
	// rounds roughly additively (logarithmically), not multiplicatively.
	roundsAt := func(n int) int64 {
		g, err := graph.RandomEulerian(n, n/8+2, 3, 13)
		if err != nil {
			t.Fatal(err)
		}
		led := rounds.New()
		if _, _, err := Orient(g, nil, Options{Env: runenv.Env{Ledger: led}}); err != nil {
			t.Fatal(err)
		}
		return led.Total()
	}
	r64 := roundsAt(64)
	r1024 := roundsAt(1024)
	// log(1024)/log(64) = 10/6; allow generous slack for log* and constant
	// factors but reject linear growth (16x).
	if r1024 > 6*r64 {
		t.Fatalf("rounds grew from %d (n=64) to %d (n=1024): faster than O(log n log* n)", r64, r1024)
	}
}

func TestCheckOrientationDetectsImbalance(t *testing.T) {
	g, err := graph.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	// All edges oriented U->V on a cycle 0-1-2-3-0: edges (0,1),(1,2),(2,3),(0,3).
	// Orienting (0,3) as U->V = 0->3 breaks balance at 0 and 3... construct
	// a deliberately broken orientation and ensure detection.
	bad := []bool{true, true, true, true}
	if v := CheckOrientation(g, bad); v == -1 {
		t.Fatal("imbalanced orientation not detected")
	}
}

// Property: random Eulerian multigraphs always get a valid orientation with
// non-positive signed cost.
func TestOrientProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(24)
		g, err := graph.RandomEulerian(n, 1+rng.Intn(6), 3, seed)
		if err != nil {
			return false
		}
		cost := make([]int64, g.M())
		for i := range cost {
			cost[i] = rng.Int63n(21) - 10
		}
		orient, _, err := Orient(g, cost, Options{})
		if err != nil {
			return false
		}
		if CheckOrientation(g, orient) != -1 {
			return false
		}
		var total int64
		for i := range cost {
			if orient[i] {
				total += cost[i]
			} else {
				total -= cost[i]
			}
		}
		return total <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
