package ccalgo

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lapcc/internal/rounds"
)

// buildRings constructs a Rings structure from explicit cycles given as slot
// sequences; owners are assigned round-robin over cliqueN nodes unless an
// explicit owner list is given.
func buildRings(cliqueN int, cycles [][]int) *Rings {
	total := 0
	for _, c := range cycles {
		total += len(c)
	}
	r := &Rings{
		CliqueN: cliqueN,
		Owner:   make([]int, total),
		Succ:    make([]int, total),
		Pred:    make([]int, total),
		Alive:   make([]bool, total),
	}
	for i := 0; i < total; i++ {
		r.Owner[i] = i % cliqueN
		r.Alive[i] = true
	}
	for _, c := range cycles {
		for j, s := range c {
			r.Succ[s] = c[(j+1)%len(c)]
			r.Pred[s] = c[(j-1+len(c))%len(c)]
		}
	}
	return r
}

func seqCycle(start, length int) []int {
	c := make([]int, length)
	for i := range c {
		c[i] = start + i
	}
	return c
}

func assertProperColoring(t *testing.T, r *Rings, colors []int) {
	t.Helper()
	for i := range r.Owner {
		if !r.Alive[i] || r.Succ[i] == i {
			continue
		}
		if colors[i] < 0 || colors[i] > 2 {
			t.Fatalf("slot %d has color %d outside {0,1,2}", i, colors[i])
		}
		if colors[i] == colors[r.Succ[i]] {
			t.Fatalf("slots %d and %d adjacent with same color %d", i, r.Succ[i], colors[i])
		}
	}
}

func TestThreeColorSingleCycle(t *testing.T) {
	for _, length := range []int{2, 3, 4, 5, 7, 16, 101} {
		r := buildRings(8, [][]int{seqCycle(0, length)})
		led := rounds.New()
		r.Net.Ledger = led
		colors, err := r.ThreeColor()
		if err != nil {
			t.Fatalf("length %d: %v", length, err)
		}
		assertProperColoring(t, r, colors)
		if led.Total() == 0 {
			t.Fatalf("length %d: coloring consumed no rounds", length)
		}
	}
}

func TestThreeColorManyCyclesSimultaneously(t *testing.T) {
	cycles := [][]int{seqCycle(0, 5), seqCycle(5, 2), seqCycle(7, 9), seqCycle(16, 3)}
	r := buildRings(6, cycles)
	colors, err := r.ThreeColor()
	if err != nil {
		t.Fatal(err)
	}
	assertProperColoring(t, r, colors)
}

func TestThreeColorSkipsSelfRings(t *testing.T) {
	r := buildRings(4, [][]int{{0}, seqCycle(1, 4)})
	colors, err := r.ThreeColor()
	if err != nil {
		t.Fatal(err)
	}
	assertProperColoring(t, r, colors)
	if colors[0] != 0 {
		t.Fatalf("self-ring color = %d, want 0", colors[0])
	}
}

func TestThreeColorRoundsScaleLikeLogStar(t *testing.T) {
	// The number of measured rounds should be essentially flat in the cycle
	// length (log* growth), not linear.
	// Clique size is chosen so each node owns at most n slots (as in the
	// Eulerian-orientation application, where a node owns deg/2 < n slots);
	// otherwise batched routing legitimately adds rounds.
	roundsAt := func(length int) int64 {
		r := buildRings(80, [][]int{seqCycle(0, length)})
		led := rounds.New()
		r.Net.Ledger = led
		if _, err := r.ThreeColor(); err != nil {
			t.Fatal(err)
		}
		return led.Total()
	}
	small := roundsAt(8)
	big := roundsAt(4096)
	if big > 3*small {
		t.Fatalf("coloring rounds grew from %d (len 8) to %d (len 4096); expected log* growth", small, big)
	}
}

func TestMaximalMatchingProperties(t *testing.T) {
	for _, length := range []int{2, 3, 4, 5, 8, 33, 100} {
		r := buildRings(8, [][]int{seqCycle(0, length)})
		matchSucc, err := r.MaximalMatching()
		if err != nil {
			t.Fatalf("length %d: %v", length, err)
		}
		checkMatching(t, r, matchSucc, length)
	}
}

func checkMatching(t *testing.T, r *Rings, matchSucc []bool, length int) {
	t.Helper()
	matched := make([]bool, len(matchSucc))
	count := 0
	for i, m := range matchSucc {
		if !m {
			continue
		}
		count++
		if matched[i] || matched[r.Succ[i]] {
			t.Fatalf("slot %d or %d matched twice", i, r.Succ[i])
		}
		matched[i] = true
		matched[r.Succ[i]] = true
	}
	if count == 0 && length >= 2 {
		t.Fatalf("no matched pair on cycle of length %d", length)
	}
	// Maximality: no ring edge with both endpoints unmatched.
	for i := range matchSucc {
		if !r.Alive[i] || r.Succ[i] == i {
			continue
		}
		if !matched[i] && !matched[r.Succ[i]] {
			t.Fatalf("edge (%d,%d) has both endpoints unmatched", i, r.Succ[i])
		}
	}
}

func TestMaximalMatchingMarkedRunsShort(t *testing.T) {
	// Marking the higher-id endpoint of each matched pair must leave at most
	// 3 consecutive unmarked slots (the paper's step 2a invariant).
	length := 200
	r := buildRings(10, [][]int{seqCycle(0, length)})
	matchSucc, err := r.MaximalMatching()
	if err != nil {
		t.Fatal(err)
	}
	marked := make([]bool, length)
	for i, m := range matchSucc {
		if m {
			hi := i
			if r.Succ[i] > hi {
				hi = r.Succ[i]
			}
			marked[hi] = true
		}
	}
	run := 0
	// Traverse twice around to capture wraparound runs.
	cur := 0
	for step := 0; step < 2*length; step++ {
		if marked[cur] {
			run = 0
		} else {
			run++
			if run > 3 {
				t.Fatalf("found %d consecutive unmarked slots", run)
			}
		}
		cur = r.Succ[cur]
	}
}

func TestValidateCatchesBadStructure(t *testing.T) {
	r := buildRings(4, [][]int{seqCycle(0, 4)})
	r.Pred[1] = 3 // break inversion
	if err := r.Validate(); err == nil {
		t.Fatal("broken Pred should fail validation")
	}
	r2 := buildRings(4, [][]int{seqCycle(0, 3)})
	r2.Owner[0] = 9
	if err := r2.Validate(); err == nil {
		t.Fatal("bad owner should fail validation")
	}
	r3 := &Rings{CliqueN: 2, Owner: []int{0}, Succ: []int{0}, Pred: []int{0}, Alive: nil}
	if err := r3.Validate(); err == nil {
		t.Fatal("length mismatch should fail validation")
	}
}

// Property: random multi-cycle instances always produce proper colorings
// and valid maximal matchings.
func TestRingsRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cycles [][]int
		next := 0
		for c := 0; c < 1+rng.Intn(4); c++ {
			l := 2 + rng.Intn(20)
			cycles = append(cycles, seqCycle(next, l))
			next += l
		}
		r := buildRings(3+rng.Intn(10), cycles)
		colors, err := r.ThreeColor()
		if err != nil {
			return false
		}
		for i := range r.Owner {
			if r.Succ[i] != i && colors[i] == colors[r.Succ[i]] {
				return false
			}
		}
		matchSucc, err := r.MaximalMatching()
		if err != nil {
			return false
		}
		matched := make([]bool, len(matchSucc))
		for i, m := range matchSucc {
			if m {
				if matched[i] || matched[r.Succ[i]] {
					return false
				}
				matched[i] = true
				matched[r.Succ[i]] = true
			}
		}
		for i := range matchSucc {
			if r.Succ[i] != i && !matched[i] && !matched[r.Succ[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRingsReuse keeps one Rings across a sequence of ring sets — random
// sets that grow and shrink, each then contracted in place the way the
// Euler orientation contracts its rings between iterations — and checks
// that every call gives the colors, matching and ledger of a fresh Rings
// on the same set.
func TestRingsReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var reused Rings
	for set := 0; set < 12; set++ {
		var cycles [][]int
		next := 0
		for c := 0; c < 1+rng.Intn(6); c++ {
			l := 2 + rng.Intn(5+20*(set%3))
			cycles = append(cycles, seqCycle(next, l))
			next += l
		}
		r := buildRings(2+rng.Intn(12), cycles)
		for step := 0; step < 3; step++ {
			reused.CliqueN, reused.Owner, reused.Succ, reused.Pred, reused.Alive = r.CliqueN, r.Owner, r.Succ, r.Pred, r.Alive
			fresh := &Rings{CliqueN: r.CliqueN, Owner: r.Owner, Succ: r.Succ, Pred: r.Pred, Alive: r.Alive}
			reusedLed, freshLed := rounds.New(), rounds.New()
			reused.Net.Ledger, fresh.Net.Ledger = reusedLed, freshLed
			gotColors, err := reused.ThreeColor()
			if err != nil {
				t.Fatal(err)
			}
			gotMatch, err := reused.MaximalMatching()
			if err != nil {
				t.Fatal(err)
			}
			wantColors, err := fresh.ThreeColor()
			if err != nil {
				t.Fatal(err)
			}
			wantMatch, err := fresh.MaximalMatching()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotColors, wantColors) || !reflect.DeepEqual(gotMatch, wantMatch) {
				t.Fatalf("set %d step %d: reused Rings differs from a fresh one", set, step)
			}
			if reusedLed.Report() != freshLed.Report() {
				t.Fatalf("set %d step %d: ledgers differ:\n%s\nvs\n%s", set, step, reusedLed.Report(), freshLed.Report())
			}
			// Contract: splice out every unmatched-with-successor slot whose
			// successor is also alive, leaving shorter rings and self-rings.
			for i, m := range gotMatch {
				if m && r.Alive[i] && r.Succ[i] != i {
					s := r.Succ[i]
					r.Succ[i], r.Pred[r.Succ[s]] = r.Succ[s], i
					r.Alive[s] = false
				}
			}
		}
	}
}
