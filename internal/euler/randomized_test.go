package euler

import (
	"testing"
	"testing/quick"

	"lapcc/internal/graph"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

func TestOrientRandomizedValid(t *testing.T) {
	g, err := graph.RandomEulerian(128, 20, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	led := rounds.New()
	orient, st, err := Orient(g, nil, Options{Mode: Randomized, Seed: 42, Env: runenv.Env{Ledger: led}})
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

func TestOrientRandomizedDeterministicPerSeed(t *testing.T) {
	g, err := graph.RandomEulerian(64, 10, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := Orient(g, nil, Options{Mode: Randomized, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Orient(g, nil, Options{Mode: Randomized, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should give identical orientations")
		}
	}
}

func TestOrientRandomizedCostGuarantee(t *testing.T) {
	g, err := graph.RandomEulerian(48, 8, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	cost := make([]int64, g.M())
	for i := range cost {
		cost[i] = int64(i%21) - 10
	}
	orient, _, err := Orient(g, cost, Options{Mode: Randomized, Seed: 3})
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
		t.Fatalf("signed cost %d > 0", total)
	}
}

func TestOrientRandomizedSkipsColoringRounds(t *testing.T) {
	// The randomized mode's whole point (paper remark after Theorem 1.4):
	// no Cole-Vishkin coloring rounds. Its ledger must contain no cv-*
	// or match-* entries.
	g, err := graph.RandomEulerian(96, 12, 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	led := rounds.New()
	if _, _, err := Orient(g, nil, Options{Mode: Randomized, Seed: 1, Env: runenv.Env{Ledger: led}}); err != nil {
		t.Fatal(err)
	}
	for _, e := range led.Entries() {
		switch e.Tag {
		case "cv-color", "cv-shiftdown", "match-propose", "match-accept":
			t.Fatalf("randomized mode recorded %s rounds", e.Tag)
		}
	}
}

// Property: both modes produce valid orientations on the same graphs.
func TestOrientModesAgreeOnValidity(t *testing.T) {
	f := func(seed int64) bool {
		g, err := graph.RandomEulerian(32, 5, 3, seed)
		if err != nil {
			return false
		}
		d, _, err := Orient(g, nil, Options{Mode: Deterministic})
		if err != nil {
			return false
		}
		r, _, err := Orient(g, nil, Options{Mode: Randomized, Seed: seed})
		if err != nil {
			return false
		}
		return CheckOrientation(g, d) == -1 && CheckOrientation(g, r) == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
