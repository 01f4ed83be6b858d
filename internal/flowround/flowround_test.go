package flowround

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lapcc/internal/graph"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

// pathFlowInstance builds a directed graph that is a union of s-t paths and
// a fractional flow assembled from delta-multiples pushed along random
// paths. Conservation holds by construction.
func pathFlowInstance(n, paths int, delta float64, seed int64) (*graph.DiGraph, []float64, int, int) {
	rng := rand.New(rand.NewSource(seed))
	dg := graph.NewDi(n)
	s, t := 0, n-1
	f := []float64{}
	for p := 0; p < paths; p++ {
		// Random increasing path s -> ... -> t.
		cur := s
		var arcIDs []int
		for cur != t {
			next := cur + 1 + rng.Intn(n-cur-1)
			id := dg.MustAddArc(cur, next, 1<<20, int64(1+rng.Intn(9)))
			arcIDs = append(arcIDs, id)
			cur = next
		}
		amount := delta * float64(1+rng.Intn(int(1/delta)*2))
		for range arcIDs {
			f = append(f, amount)
		}
	}
	return dg, f, s, t
}

func flowValue(dg *graph.DiGraph, f []float64, s int) float64 {
	var v float64
	for _, ai := range dg.Out(s) {
		v += f[ai]
	}
	for _, ai := range dg.In(s) {
		v -= f[ai]
	}
	return v
}

func flowCost(dg *graph.DiGraph, f []float64) float64 {
	var c float64
	for i, a := range dg.Arcs() {
		c += float64(a.Cost) * f[i]
	}
	return c
}

func TestRoundValidation(t *testing.T) {
	dg := graph.NewDi(3)
	dg.MustAddArc(0, 1, 5, 1)
	dg.MustAddArc(1, 2, 5, 1)
	if _, err := Round(dg, []float64{0.5}, 0, 2, 0.5, false, runenv.Env{}); err == nil {
		t.Fatal("flow length mismatch should error")
	}
	if _, err := Round(dg, []float64{0.5, 0.5}, 0, 2, 0.3, false, runenv.Env{}); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("bad delta error = %v", err)
	}
	if _, err := Round(dg, []float64{0.3, 0.3}, 0, 2, 0.5, false, runenv.Env{}); !errors.Is(err, ErrNotOnGrid) {
		t.Fatalf("off-grid error = %v", err)
	}
	if _, err := Round(dg, []float64{0.5, 0.0}, 0, 2, 0.5, false, runenv.Env{}); !errors.Is(err, ErrNotConserved) {
		t.Fatalf("conservation error = %v", err)
	}
}

func TestRoundSinglePath(t *testing.T) {
	dg := graph.NewDi(3)
	dg.MustAddArc(0, 1, 5, 1)
	dg.MustAddArc(1, 2, 5, 1)
	got, err := Round(dg, []float64{0.75, 0.75}, 0, 2, 0.25, false, runenv.Env{Ledger: rounds.New()})
	if err != nil {
		t.Fatal(err)
	}
	// Value must not decrease: 0.75 fractional -> must round up to 1.
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("rounded flow = %v, want [1 1]", got)
	}
}

func TestRoundPreservesIntegralFlows(t *testing.T) {
	dg := graph.NewDi(3)
	dg.MustAddArc(0, 1, 5, 1)
	dg.MustAddArc(1, 2, 5, 1)
	got, err := Round(dg, []float64{2, 2}, 0, 2, 0.25, false, runenv.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 2 {
		t.Fatalf("integral flow changed: %v", got)
	}
}

func TestRoundFloorCeilBracketAndGuarantees(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		delta := 1.0 / 16
		dg, f, s, tt := pathFlowInstance(12, 6, delta, seed)
		led := rounds.New()
		got, err := Round(dg, f, s, tt, delta, false, runenv.Env{Ledger: led})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range f {
			lo, hi := int64(math.Floor(f[i])), int64(math.Ceil(f[i]))
			if got[i] < lo || got[i] > hi {
				t.Fatalf("seed %d: arc %d rounded %v -> %d outside [%d,%d]", seed, i, f[i], got[i], lo, hi)
			}
		}
		if v := conservationViolator(dg, got, s, tt); v >= 0 {
			t.Fatalf("seed %d: conservation broken at %d", seed, v)
		}
		if float64(Value(dg, got, s)) < flowValue(dg, f, s)-1e-9 {
			t.Fatalf("seed %d: value dropped from %v to %d", seed, flowValue(dg, f, s), Value(dg, got, s))
		}
		if led.Total() == 0 {
			t.Fatalf("seed %d: no rounds recorded", seed)
		}
	}
}

func TestRoundCostAwareDoesNotIncreaseCost(t *testing.T) {
	// Integral total flow + costs: rounded cost must not exceed input cost.
	for seed := int64(20); seed < 28; seed++ {
		delta := 1.0 / 8
		rng := rand.New(rand.NewSource(seed))
		n := 10
		dg := graph.NewDi(n)
		s, tt := 0, n-1
		// Two parallel path bundles so fractional flow can shift between
		// cheap and expensive routes; total pushed per bundle pair is 1.
		var f []float64
		for b := 0; b < 3; b++ {
			frac := delta * float64(1+2*rng.Intn(3)) // odd multiple, < 1
			for _, amount := range []float64{frac, 1 - frac} {
				cur := s
				for cur != tt {
					next := cur + 1 + rng.Intn(n-cur-1)
					dg.MustAddArc(cur, next, 1<<20, int64(1+rng.Intn(9)))
					f = append(f, amount)
					cur = next
				}
			}
		}
		got, err := Round(dg, f, s, tt, delta, true, runenv.Env{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		inCost := flowCost(dg, f)
		outCost := float64(Cost(dg, got))
		if outCost > inCost+1e-6 {
			t.Fatalf("seed %d: cost rose from %v to %v", seed, inCost, outCost)
		}
		if float64(Value(dg, got, s)) < flowValue(dg, f, s)-1e-9 {
			t.Fatalf("seed %d: value dropped", seed)
		}
	}
}

func TestRoundRoundsScaleWithLogDelta(t *testing.T) {
	roundsFor := func(delta float64) int64 {
		dg, f, s, tt := pathFlowInstance(16, 8, delta, 99)
		led := rounds.New()
		if _, err := Round(dg, f, s, tt, delta, false, runenv.Env{Ledger: led}); err != nil {
			t.Fatal(err)
		}
		return led.Total()
	}
	r4 := roundsFor(1.0 / 16)   // 4 levels
	r16 := roundsFor(1.0 / 256) // 8 levels... roughly 2x
	if r16 > 6*r4 {
		t.Fatalf("rounds grew from %d to %d; want ~log(1/delta) growth", r4, r16)
	}
}

func TestSnapToGridRepairsConservation(t *testing.T) {
	dg, f, s, tt := pathFlowInstance(10, 5, 1.0/16, 7)
	// Perturb the flow off-grid hard enough that snapping lands some arcs
	// on different grid points and the tree repair has real work to do.
	rng := rand.New(rand.NewSource(8))
	for i := range f {
		f[i] += (rng.Float64() - 0.3) * (1.0 / 16)
		if f[i] < 0 {
			f[i] = 0
		}
	}
	snapped, err := SnapToGrid(dg, f, s, tt, 1.0/16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Round(dg, snapped, s, tt, 1.0/16, false, runenv.Env{}); err != nil {
		t.Fatalf("snapped flow not roundable: %v", err)
	}
}

func TestValueAndCostHelpers(t *testing.T) {
	dg := graph.NewDi(3)
	dg.MustAddArc(0, 1, 5, 3)
	dg.MustAddArc(1, 2, 5, 4)
	dg.MustAddArc(2, 0, 5, 1) // back arc into s
	f := []int64{2, 2, 1}
	if got := Value(dg, f, 0); got != 1 {
		t.Fatalf("Value = %d, want 1", got)
	}
	if got := Cost(dg, f); got != 2*3+2*4+1 {
		t.Fatalf("Cost = %d, want 15", got)
	}
}

// Property: random path flows always round to in-bracket, conserving,
// value-preserving integer flows.
func TestRoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		delta := 1.0 / 32
		dg, flow, s, tt := pathFlowInstance(14, 5, delta, seed)
		got, err := Round(dg, flow, s, tt, delta, false, runenv.Env{})
		if err != nil {
			return false
		}
		for i := range flow {
			if got[i] < int64(math.Floor(flow[i])) || got[i] > int64(math.Ceil(flow[i])) {
				return false
			}
		}
		if conservationViolator(dg, got, s, tt) >= 0 {
			return false
		}
		return float64(Value(dg, got, s)) >= flowValue(dg, flow, s)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
