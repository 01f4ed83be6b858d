package sparsify

import (
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

func TestRandomizedSparsifyQuality(t *testing.T) {
	g := graph.Complete(96)
	led := rounds.New()
	res, err := RandomizedSparsify(g, RandomOptions{Seed: 1, Env: runenv.Env{Ledger: led}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.H.IsConnected() {
		t.Fatal("randomized sparsifier disconnected")
	}
	if res.H.M() >= g.M() {
		t.Fatalf("no shrinkage: %d >= %d", res.H.M(), g.M())
	}
	alpha, err := MeasureAlpha(g, res.H, 200)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("K96: m=%d -> %d edges, alpha=%.2f", g.M(), res.H.M(), alpha)
	if alpha > 10 {
		t.Fatalf("alpha = %v too large for eps=0.5 sampling on a clique", alpha)
	}
	if led.TotalOf(rounds.Charged) != RandomizedSparsifyRounds(96) {
		t.Fatalf("charged %d rounds, want %d", led.TotalOf(rounds.Charged), RandomizedSparsifyRounds(96))
	}
}

func TestRandomizedSparsifyWeighted(t *testing.T) {
	base, err := graph.RandomRegular(64, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.WithRandomWeights(base, 50, 6)
	res, err := RandomizedSparsify(g, RandomOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := MeasureAlpha(g, res.H, 200)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("weighted regular: alpha=%.2f edges=%d", alpha, res.H.M())
	if alpha > 20 {
		t.Fatalf("alpha = %v too large", alpha)
	}
}

func TestRandomizedSparsifyReproduciblePerSeed(t *testing.T) {
	g := graph.Complete(32)
	a, err := RandomizedSparsify(g, RandomOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomizedSparsify(g, RandomOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.H.M() != b.H.M() {
		t.Fatalf("same seed gave %d vs %d edges", a.H.M(), b.H.M())
	}
}

func TestRandomizedSparsifyRejectsBadInput(t *testing.T) {
	if _, err := RandomizedSparsify(graph.New(3), RandomOptions{}); err == nil {
		t.Fatal("empty graph accepted")
	}
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	if _, err := RandomizedSparsify(g, RandomOptions{}); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestRandomizedVsDeterministicRounds(t *testing.T) {
	// The point of the remark: the randomized construction is charged
	// polylog rounds, below the deterministic chain's cost at scale.
	g, err := graph.RandomRegular(256, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	detLed := rounds.New()
	if _, err := Sparsify(g, Options{Ledger: detLed}); err != nil {
		t.Fatal(err)
	}
	randLed := rounds.New()
	if _, err := RandomizedSparsify(g, RandomOptions{Seed: 3, Env: runenv.Env{Ledger: randLed}}); err != nil {
		t.Fatal(err)
	}
	t.Logf("rounds: deterministic=%d randomized=%d", detLed.Total(), randLed.Total())
	if randLed.Total() <= 0 {
		t.Fatal("randomized rounds not recorded")
	}
}
