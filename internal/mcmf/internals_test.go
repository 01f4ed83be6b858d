package mcmf

import (
	"math"
	"math/rand"
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/shortestpath"
)

func TestFindNegativeCycleSimple(t *testing.T) {
	// 0 -> 1 (2), 1 -> 2 (3), 2 -> 0 (-7): one negative cycle.
	adj := [][]shortestpath.Arc{
		{{To: 1, Weight: 2, ID: 0}},
		{{To: 2, Weight: 3, ID: 1}},
		{{To: 0, Weight: -7, ID: 2}},
	}
	cyc, err := findNegativeCycle(adj, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cyc) != 3 {
		t.Fatalf("cycle = %v, want all 3 arcs", cyc)
	}
	seen := map[int]bool{}
	for _, id := range cyc {
		seen[id] = true
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("cycle arcs = %v", cyc)
	}
}

func TestFindNegativeCycleNone(t *testing.T) {
	// Positive cycle and negative arcs without a negative cycle.
	adj := [][]shortestpath.Arc{
		{{To: 1, Weight: -5, ID: 0}},
		{{To: 2, Weight: 3, ID: 1}},
		{{To: 0, Weight: 3, ID: 2}},
	}
	cyc, err := findNegativeCycle(adj, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cyc != nil {
		t.Fatalf("found spurious cycle %v", cyc)
	}
}

func TestFindNegativeCycleZeroCycleIgnored(t *testing.T) {
	adj := [][]shortestpath.Arc{
		{{To: 1, Weight: 4, ID: 0}},
		{{To: 0, Weight: -4, ID: 1}},
	}
	cyc, err := findNegativeCycle(adj, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cyc != nil {
		t.Fatalf("zero-weight cycle reported negative: %v", cyc)
	}
}

// Property: on random graphs, any cycle returned has strictly negative
// total weight and is a genuine directed cycle.
func TestFindNegativeCycleProperty(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		adj := make([][]shortestpath.Arc, n)
		heads := map[int][2]int{} // arc id -> (from, to)
		weights := map[int]int64{}
		id := 0
		for v := 0; v < n; v++ {
			for k := 0; k < 2+rng.Intn(3); k++ {
				w := rng.Intn(n)
				if w == v {
					continue
				}
				wt := int64(rng.Intn(21) - 8)
				adj[v] = append(adj[v], shortestpath.Arc{To: w, Weight: wt, ID: id})
				heads[id] = [2]int{v, w}
				weights[id] = wt
				id++
			}
		}
		cyc, err := findNegativeCycle(adj, n)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cyc == nil {
			continue
		}
		var total int64
		for _, a := range cyc {
			total += weights[a]
		}
		if total >= 0 {
			t.Fatalf("seed %d: returned cycle weight %d >= 0", seed, total)
		}
		// Arcs must chain into a closed directed walk.
		for i := range cyc {
			cur := heads[cyc[i]]
			next := heads[cyc[(i+1)%len(cyc)]]
			// cycle collected in predecessor order: arc into w precedes the
			// arc into w's predecessor; verify connectivity in either order.
			if cur[0] != next[1] && cur[1] != next[0] {
				t.Fatalf("seed %d: arcs %v do not chain", seed, cyc)
			}
		}
	}
}

func TestProgressMaintainsInvariants(t *testing.T) {
	dg, sigma := bipartiteInstance(6, 6, 3, 9, 5)
	l, err := newLifted(dg, sigma)
	if err != nil {
		t.Fatal(err)
	}
	st := newCMSVState(l, Options{})
	res := &Result{}
	for iter := 0; iter < 10; iter++ {
		if err := st.progress(res); err != nil {
			t.Fatal(err)
		}
		// f > 0, s > 0 everywhere.
		for i := range st.f {
			if st.f[i] <= 0 || st.s[i] <= 0 {
				t.Fatalf("iter %d: f=%v s=%v at edge %d", iter, st.f[i], st.s[i], i)
			}
		}
		// Demands approximately satisfied: every Q vertex absorbs ~1.
		nb := l.nP + l.nQ
		sums := make([]float64, nb)
		for i := range st.f {
			u, q := l.ends(i)
			sums[u] += st.f[i]
			sums[q] += st.f[i]
		}
		for q := 0; q < l.nQ; q++ {
			if math.Abs(sums[l.nP+q]-1) > 1e-4 {
				t.Fatalf("iter %d: Q %d absorbs %v, want 1", iter, q, sums[l.nP+q])
			}
		}
	}
	if res.ProgressIterations != 10 {
		t.Fatalf("ProgressIterations = %d", res.ProgressIterations)
	}
}

func TestPerturbShiftsWeightsAndSlacks(t *testing.T) {
	dg, sigma := bipartiteInstance(4, 4, 2, 5, 9)
	l, err := newLifted(dg, sigma)
	if err != nil {
		t.Fatal(err)
	}
	st := newCMSVState(l, Options{})
	// Fabricate a congested edge.
	st.rho[2] = 10
	sBefore := st.s[2]
	nuBefore := st.nu[2]
	res := &Result{}
	st.perturb(res)
	if res.Perturbations != 1 {
		t.Fatal("perturbation not counted")
	}
	if st.s[2] != 2*sBefore {
		t.Fatalf("slack %v, want doubled %v", st.s[2], 2*sBefore)
	}
	if st.nu[2] != 2*nuBefore {
		t.Fatalf("nu %v, want doubled %v", st.nu[2], 2*nuBefore)
	}
	if st.rho[2] != 0 {
		t.Fatal("treated edge should have rho reset")
	}
}

func TestDecodeRejectsAuxUsage(t *testing.T) {
	dg := graph.NewDi(2)
	dg.MustAddArc(0, 1, 1, 3)
	sigma := []int64{1, -1}
	l, err := newLifted(dg, sigma)
	if err != nil {
		t.Fatal(err)
	}
	// Force a "matching" that uses an aux arc (if any exists).
	auxArc := -1
	for q := 0; q < l.nQ; q++ {
		if l.origArc[q] < 0 {
			auxArc = q
			break
		}
	}
	if auxArc < 0 {
		t.Skip("instance generated no aux arcs")
	}
	match := make([]int64, l.edges())
	match[2*auxArc] = 1
	if _, err := l.decode(match); err == nil {
		t.Fatal("aux usage should be rejected as infeasible")
	}
}
