package lapsolver

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
	"lapcc/internal/trace"
)

// twin is one side of TestSolveLanesMatchesSolveLoop: a solver with its own
// ledger, tracer and metrics registry (linalg's kernel counters included).
type twin struct {
	s   *Solver
	led *rounds.Ledger
	tr  *trace.Tracer
	reg *metrics.Registry
}

func newTwin(t *testing.T, g *graph.Graph, opts Options, cg bool, budget func(*rounds.Ledger) *rounds.Budget) *twin {
	t.Helper()
	tw := &twin{led: rounds.New(), tr: trace.New(), reg: metrics.NewRegistry()}
	linalg.SetMetrics(tw.reg)
	defer linalg.SetMetrics(nil)
	opts.Ledger, opts.Trace, opts.Metrics = tw.led, tw.tr, tw.reg
	s, err := NewSolver(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cg {
		s.hf, s.lh = nil, linalg.NewLaplacian(s.h)
	}
	if budget != nil {
		s.SetBudget(budget(tw.led))
	}
	tw.s = s
	return tw
}

// outcomeOf is everything a twin's solves leave behind that must match.
type outcomeOf struct {
	xs       []linalg.Vec
	stats    []Stats
	err      string
	budget   *rounds.BudgetError
	report   string
	jsonl    []byte
	counters []metrics.Sample
}

func (tw *twin) outcome(t *testing.T, xs []linalg.Vec, stats []Stats, err error) outcomeOf {
	t.Helper()
	o := outcomeOf{xs: xs, stats: stats, report: tw.led.Report()}
	for i := range o.stats {
		o.stats[i].WallTime = 0
	}
	if err != nil {
		o.err = err.Error()
		var be *rounds.BudgetError
		if errors.As(err, &be) {
			cp := *be
			cp.Elapsed, cp.Partial.WallTime = 0, 0
			o.budget = &cp
			o.err = ""
		}
	}
	var buf bytes.Buffer
	if err := tw.tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	o.jsonl = buf.Bytes()
	for _, smp := range tw.reg.Snapshot() {
		if smp.Kind == metrics.KindCounter {
			o.counters = append(o.counters, smp)
		}
	}
	return o
}

// laneRHS returns k right-hand sides on n vertices: mostly random, with a
// zero one and a constant one (mean-free after projection: zero) among
// them once k is large enough, and magnitudes from 2^-40 to 2^40.
func laneRHS(n, k int) []linalg.Vec {
	bs := make([]linalg.Vec, k)
	for j := range bs {
		bs[j] = meanFreeVec(n, int64(100+j))
		bs[j].Scale(math.Ldexp(1, 10*(j%9)-40))
	}
	if k > 5 {
		bs[5].Zero()
	}
	if k > 7 {
		for i := range bs[7] {
			bs[7][i] = 3
		}
	}
	return bs
}

// TestSolveLanesMatchesSolveLoop compares SolveLanes with a loop of Solve
// calls on a twin solver: the same answer bits, Stats, ledger report,
// trace JSONL bytes, lapsolver and linalg counters, and errors — a round
// budget's phase and partial stats included — for 1 to 9 right-hand sides,
// on the CG path and under WarmStart (groups of one), under NoEscalation,
// with a lane that falls back to the dense solve while the others are
// accepted, and with budgets that run out inside a later right-hand side.
func TestSolveLanesMatchesSolveLoop(t *testing.T) {
	g, err := graph.RandomRegular(64, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		name   string
		opts   Options
		cg     bool
		eps    float64
		bs     []linalg.Vec
		budget func(*rounds.Ledger) *rounds.Budget
		check  func(t *testing.T, o outcomeOf)
	}
	// At kappa 9.8 the certificate accepts right-hand sides 2, 3 and 4 of
	// laneRHS and rejects 0: capped there, the third lane of mixed must
	// fall back to the dense solve (or fail) while the others are accepted.
	capped := func(noEscalation bool) Options {
		return Options{KappaHint: 9.8, MaxKappa: 9.8, NoEscalation: noEscalation}
	}
	r := laneRHS(g.N(), 5)
	mixed := []linalg.Vec{r[2], r[3], r[0], r[4]}
	var cases []tc
	for k := 1; k <= 9; k++ {
		cases = append(cases, tc{name: fmt.Sprintf("k=%d", k), eps: 1e-8, bs: laneRHS(g.N(), k)})
	}
	cases = append(cases,
		tc{name: "cg", cg: true, eps: 1e-8, bs: laneRHS(g.N(), 5)},
		tc{name: "warm", opts: Options{WarmStart: true}, eps: 1e-8, bs: laneRHS(g.N(), 5)},
		tc{name: "no-escalation", opts: Options{NoEscalation: true}, eps: 1e-6, bs: laneRHS(g.N(), 4)},
		tc{name: "no-escalation-cap", opts: capped(true), eps: 1e-8, bs: mixed,
			check: func(t *testing.T, o outcomeOf) {
				if o.err == "" || len(o.xs) != 2 {
					t.Fatalf("%d answers and error %q: want the kappa cap to fail the third lane", len(o.xs), o.err)
				}
			}},
		tc{name: "dense-fallback", opts: capped(false), eps: 1e-8, bs: mixed,
			check: func(t *testing.T, o outcomeOf) {
				for j, st := range o.stats {
					if st.DenseFallback != (j == 2) {
						t.Fatalf("rhs %d: dense fallback %v, want only the third lane's", j, st.DenseFallback)
					}
				}
			}},
		tc{name: "bad-eps", eps: 0.7, bs: laneRHS(g.N(), 4)},
		tc{name: "bad-length", eps: 1e-8, bs: append(laneRHS(g.N(), 5)[:3], linalg.NewVec(3), laneRHS(g.N(), 1)[0])},
	)
	// Budgets that run out inside the third right-hand side: before its
	// first attempt, and before its second (KappaHint 1.5 makes every
	// right-hand side take several attempts).
	for _, extra := range []int64{0, 1} {
		extra := extra
		opts := Options{KappaHint: 1.5}
		bs := laneRHS(g.N(), 6)
		loop := newTwin(t, g, opts, false, nil)
		start := loop.led.Total()
		var used []int64
		for _, b := range bs[:3] {
			if _, _, err := loop.s.Solve(b, 1e-8); err != nil {
				t.Fatal(err)
			}
			used = append(used, loop.led.Total()-start)
		}
		limit := used[1] + extra
		cases = append(cases, tc{name: fmt.Sprintf("budget+%d", extra), opts: opts, eps: 1e-8, bs: bs,
			budget: func(*rounds.Ledger) *rounds.Budget { return rounds.NewBudget(limit, 0) },
			check: func(t *testing.T, o outcomeOf) {
				if o.budget == nil || len(o.xs) != 2 || len(o.stats) != 3 {
					t.Fatalf("want a budget stop inside the third right-hand side, got %d answers, %d stats, error %q %+v",
						len(o.xs), len(o.stats), o.err, o.budget)
				}
				if want := fmt.Sprintf("lapsolve-attempt-%d", extra+1); o.budget.Phase != want {
					t.Fatalf("budget stopped at %s, want %s", o.budget.Phase, want)
				}
			}})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			loop := newTwin(t, g, c.opts, c.cg, c.budget)
			var want outcomeOf
			func() {
				linalg.SetMetrics(loop.reg)
				defer linalg.SetMetrics(nil)
				var xs []linalg.Vec
				var stats []Stats
				var err error
				for _, b := range c.bs {
					var x linalg.Vec
					var st Stats
					x, st, err = loop.s.Solve(b, c.eps)
					stats = append(stats, st)
					if err != nil {
						break
					}
					xs = append(xs, x)
				}
				want = loop.outcome(t, xs, stats, err)
			}()

			lanes := newTwin(t, g, c.opts, c.cg, c.budget)
			linalg.SetMetrics(lanes.reg)
			xs, stats, err := lanes.s.SolveLanes(c.bs, c.eps)
			linalg.SetMetrics(nil)
			got := lanes.outcome(t, xs, stats, err)

			if len(got.xs) != len(want.xs) {
				t.Fatalf("%d answers, want %d", len(got.xs), len(want.xs))
			}
			for j := range want.xs {
				for i := range want.xs[j] {
					if math.Float64bits(got.xs[j][i]) != math.Float64bits(want.xs[j][i]) {
						t.Fatalf("rhs %d: x[%d] = %v, want %v", j, i, got.xs[j][i], want.xs[j][i])
					}
				}
			}
			if !reflect.DeepEqual(got.stats, want.stats) {
				t.Fatalf("stats\n%+v\nwant\n%+v", got.stats, want.stats)
			}
			if got.err != want.err || !reflect.DeepEqual(got.budget, want.budget) {
				t.Fatalf("error %q %+v, want %q %+v", got.err, got.budget, want.err, want.budget)
			}
			if got.report != want.report {
				t.Fatalf("ledger report\n%s\nwant\n%s", got.report, want.report)
			}
			if !bytes.Equal(got.jsonl, want.jsonl) {
				t.Fatalf("trace JSONL differs:\n%s\nwant\n%s", got.jsonl, want.jsonl)
			}
			if !reflect.DeepEqual(got.counters, want.counters) {
				t.Fatalf("counters\n%+v\nwant\n%+v", got.counters, want.counters)
			}
			if c.check != nil {
				c.check(t, want)
			}
		})
	}
}

// TestSolveLanesAllocatesPerAttempt: a warm SolveLanes of four right-hand
// sides allocates per attempt and per right-hand side, never per
// iteration: eps 1e-10 runs more iterations than eps 1e-4 in as many
// attempts and allocates the same.
func TestSolveLanesAllocatesPerAttempt(t *testing.T) {
	g, err := graph.RandomRegular(128, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	bs := laneRHS(g.N(), 4)
	s, err := NewSolver(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(eps float64) (allocs float64, st []Stats) {
		allocs = testing.AllocsPerRun(20, func() {
			var err error
			if _, st, err = s.SolveLanes(bs, eps); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, st
	}
	loose, looseSt := measure(1e-4)
	tight, tightSt := measure(1e-10)
	for j := range bs {
		if tightSt[j].Iterations <= looseSt[j].Iterations || tightSt[j].Attempts != looseSt[j].Attempts {
			t.Fatalf("rhs %d: eps 1e-10 ran %d iterations in %d attempts, eps 1e-4 %d in %d: want more iterations in as many attempts",
				j, tightSt[j].Iterations, tightSt[j].Attempts, looseSt[j].Iterations, looseSt[j].Attempts)
		}
	}
	if tight != loose {
		t.Fatalf("SolveLanes allocates %v times at eps 1e-10 and %v at eps 1e-4: an iteration allocates", tight, loose)
	}
}

// TestSolveScaleInvariant: Solve(2^e b) is 2^e Solve(b) bit for bit, in as
// many iterations and rounds, far outside the range where b's squared
// norms stay finite and normal.
func TestSolveScaleInvariant(t *testing.T) {
	g, err := graph.RandomRegular(128, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := linalg.NewVec(g.N())
	b[0], b[1] = 1, -1
	solve := func(b linalg.Vec) (linalg.Vec, Stats) {
		s, err := NewSolver(g, Options{Env: runenv.Env{Ledger: rounds.New()}})
		if err != nil {
			t.Fatal(err)
		}
		x, st, err := s.Solve(b, 1e-8)
		if err != nil {
			t.Fatal(err)
		}
		return x, st
	}
	want, wantSt := solve(b)
	for _, e := range []int{300, -300, 600, -600, 900, -900} {
		bs := b.Clone()
		bs.Scale(math.Ldexp(1, e))
		got, st := solve(bs)
		if st.Iterations != wantSt.Iterations || st.TotalRounds() != wantSt.TotalRounds() {
			t.Fatalf("e=%d: %d iterations and %d rounds, want %d and %d",
				e, st.Iterations, st.TotalRounds(), wantSt.Iterations, wantSt.TotalRounds())
		}
		for i := range want {
			if w := math.Ldexp(want[i], e); math.Float64bits(got[i]) != math.Float64bits(w) {
				t.Fatalf("e=%d: x[%d] = %v, want %v", e, i, got[i], w)
			}
		}
	}
}
