package euler

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"lapcc/internal/cc"
	"lapcc/internal/graph"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
	"lapcc/internal/transport/tcp"
)

// Every orientation takes its working memory from statePool and puts it
// back, so the orientations of one request, and of concurrent requests,
// run on recycled scratch. These tests pin that recycling as invisible:
// results under concurrency, across transports that are closed and
// reopened, and after any earlier orientation are the results of a fresh
// run, and a warm orientation allocates almost nothing.

// flowParity returns a parity graph of the kind Cohen's rounding orients at
// every level: the arcs of a LayeredDAG that an odd number of random unit
// s-t paths use, plus the return arc t-s when the path count is odd, with
// every edge's signed cost for the direction its arc runs.
func flowParity(seed int64) (*graph.Graph, []int64) {
	rng := rand.New(rand.NewSource(seed))
	dg := graph.LayeredDAG(4, 4, 2, 4, seed)
	n := dg.N()
	use := make([]int, dg.M())
	paths := 3 + rng.Intn(6)
	for p := 0; p < paths; p++ {
		for v := 0; v != n-1; {
			out := dg.Out(v)
			i := out[rng.Intn(len(out))]
			use[i]++
			v = dg.Arc(i).To
		}
	}
	g := graph.New(n)
	var cost []int64
	add := func(from, to int, c int64) {
		e := g.Edge(g.MustAddEdge(from, to, 1))
		if e.U != from {
			c = -c
		}
		cost = append(cost, c)
	}
	for i, u := range use {
		if u%2 == 1 {
			a := dg.Arc(i)
			add(a.From, a.To, a.Cost*(1+rng.Int63n(5)))
		}
	}
	if paths%2 == 1 {
		add(n-1, 0, -1<<20)
	}
	return g, cost
}

// orientJob is one orientation input.
type orientJob struct {
	g       *graph.Graph
	dirCost []int64
	mode    Mode
}

// orientOutcome is one orientation's full observable result.
type orientOutcome struct {
	orient []bool
	stats  Stats
	ledger string
}

func runOrient(j orientJob, tr cc.Transport) (orientOutcome, error) {
	led := rounds.New()
	orient, st, err := Orient(j.g, j.dirCost, Options{Mode: j.mode, Seed: 9, Env: runenv.Env{Ledger: led, Transport: tr}})
	st.WallTime = 0 // the one field that is not a function of the input
	return orientOutcome{orient, st, led.Report()}, err
}

// orientJobs returns RandomRegular and flow-parity inputs, with and
// without costs, in both marking modes.
func orientJobs(t *testing.T, seed int64) []orientJob {
	t.Helper()
	rr, err := graph.RandomRegular(64, 6, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	rrCost := make([]int64, rr.M())
	for i := range rrCost {
		rrCost[i] = rng.Int63n(21) - 10
	}
	pg, pgCost := flowParity(seed)
	return []orientJob{
		{rr, nil, Deterministic},
		{rr, rrCost, Deterministic},
		{pg, nil, Deterministic},
		{pg, pgCost, Deterministic},
		{pg, pgCost, Randomized},
		{rr, rrCost, Randomized},
	}
}

// TestOrientConcurrent runs orientations from several goroutines at once,
// as the daemon does for concurrent requests sharing the pooled scratch:
// every result deep-equals the same orientation run sequentially.
func TestOrientConcurrent(t *testing.T) {
	const (
		workers = 8
		reps    = 5
	)
	jobs := make([][]orientJob, workers)
	want := make([][]orientOutcome, workers)
	for w := range jobs {
		jobs[w] = orientJobs(t, int64(200+w))
		for _, j := range jobs[w] {
			out, err := runOrient(j, nil)
			if err != nil {
				t.Fatal(err)
			}
			if v := CheckOrientation(j.g, out.orient); v != -1 {
				t.Fatalf("vertex %d unbalanced", v)
			}
			want[w] = append(want[w], out)
		}
	}
	var wg sync.WaitGroup
	for w := range jobs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				for k, j := range jobs[w] {
					got, err := runOrient(j, nil)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, want[w][k]) {
						t.Errorf("worker %d rep %d job %d: concurrent result differs from its sequential run", w, r, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestOrientAllocations pins a warm orientation's allocations: the packets,
// payloads, routing outputs and ring scratch are recycled, leaving the
// result and a few per-iteration values.
func TestOrientAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	g, err := graph.RandomRegular(64, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, _, err := Orient(g, nil, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pools
	a := testing.AllocsPerRun(20, run)
	if a > 100 {
		t.Fatalf("a warm Orient of RandomRegular(64,6) allocates %v times, want at most 100", a)
	}
	t.Logf("a warm Orient of RandomRegular(64,6) allocates %v times", a)
}

// TestOrientTransportReopened runs orientations over an in-process tcp
// transport, closes it, and runs them again over a newly opened one, as the
// benchmark does between its set-ups: recycled scratch must not hold on to
// the closed transport. Every run matches the in-process result.
func TestOrientTransportReopened(t *testing.T) {
	all := orientJobs(t, 5)
	jobs := []orientJob{all[1], all[3]} // RandomRegular and flow parity, with costs
	var want []orientOutcome
	for _, j := range jobs {
		out, err := runOrient(j, nil)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, out)
	}
	for round := 0; round < 2; round++ {
		tr, err := tcp.Open("tcp,procs=2")
		if err != nil {
			t.Fatal(err)
		}
		for k, j := range jobs {
			got, err := runOrient(j, tr)
			if err != nil {
				tr.Close()
				t.Fatalf("transport %d job %d: %v", round, k, err)
			}
			if !reflect.DeepEqual(got, want[k]) {
				tr.Close()
				t.Fatalf("transport %d job %d: orientation differs from the in-process run", round, k)
			}
		}
		moved := tr.(*tcp.Transport).Stats().Messages
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if moved == 0 {
			t.Fatalf("transport %d carried no messages", round)
		}
	}
}
