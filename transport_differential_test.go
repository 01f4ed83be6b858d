package lapcc_test

// Differential transport tests: the headline algorithms must produce
// bit-identical answers and identical charged ledgers no matter which
// delivery backend carries their messages — the in-process merge, the
// in-process wire codec (transport.Mem), or the multi-process TCP clique
// with every worker in its own OS process. Combined with a fault plan this
// is the acceptance gate of the transport boundary: the backend may change
// how bytes move, never what arrives or what it costs.

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"lapcc/internal/cc"
	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/transport"
	"lapcc/internal/transport/tcp"
)

var nodeBin struct {
	once sync.Once
	path string
	err  error
}

// nodeBinary builds cmd/lapccnode once per test binary and returns its path,
// so the TCP cases run real worker subprocesses.
func nodeBinary(t *testing.T) string {
	t.Helper()
	nodeBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "lapccnode")
		if err != nil {
			nodeBin.err = err
			return
		}
		bin := filepath.Join(dir, "lapccnode")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/lapccnode")
		if out, err := cmd.CombinedOutput(); err != nil {
			nodeBin.err = err
			t.Logf("go build ./cmd/lapccnode: %s", out)
			return
		}
		nodeBin.path = bin
	})
	if nodeBin.err != nil {
		t.Fatalf("building lapccnode: %v", nodeBin.err)
	}
	return nodeBin.path
}

// backends yields the wire-carrying delivery backends under test, each as a
// fresh instance: the codec round-trip and a 4-process TCP clique running
// the built lapccnode binary.
func backends(t *testing.T) map[string]func() cc.Transport {
	t.Helper()
	bin := nodeBinary(t)
	return map[string]func() cc.Transport{
		"mem": func() cc.Transport { return transport.NewMem() },
		"tcp": func() cc.Transport {
			tr, err := tcp.New(tcp.Options{Procs: 4, Binary: bin})
			if err != nil {
				t.Fatalf("booting tcp transport: %v", err)
			}
			return tr
		},
	}
}

func sameRounds(t *testing.T, label string, want, got core.RoundReport) {
	t.Helper()
	if want != got {
		t.Fatalf("%s: round report diverges: %+v != %+v", label, got, want)
	}
}

// TestTransportDifferentialLapsolver pins SolveLaplacianWith across
// backends under an injected fault plan: potentials and the full round
// report (total, measured, charged) must be bit-identical to the in-process
// run.
func TestTransportDifferentialLapsolver(t *testing.T) {
	g, err := graph.ConnectedGNM(48, 140, 11)
	if err != nil {
		t.Fatal(err)
	}
	b := linalg.NewVec(48)
	b[0], b[47] = 1, -1
	base, err := core.SolveLaplacianWith(g.Clone(), b, 1e-8, core.RunOptions{Faults: dropPlan(101)})
	if err != nil {
		t.Fatal(err)
	}
	for name, open := range backends(t) {
		tr := open()
		got, err := core.SolveLaplacianWith(g.Clone(), b, 1e-8, core.RunOptions{
			Faults: dropPlan(101), Transport: tr,
		})
		if cerr := tr.Close(); cerr != nil {
			t.Fatalf("%s: close: %v", name, cerr)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range base.X {
			if base.X[i] != got.X[i] {
				t.Fatalf("%s: potentials diverge at %d: %v != %v", name, i, got.X[i], base.X[i])
			}
		}
		sameRounds(t, name, base.Rounds, got.Rounds)
	}
}

// TestTransportDifferentialMaxflow pins MaxFlowWith the same way: value,
// per-arc flow, and charged rounds are backend-independent under faults.
func TestTransportDifferentialMaxflow(t *testing.T) {
	dg := graph.LayeredDAG(3, 4, 2, 8, 21)
	s, tt := 0, dg.N()-1
	base, err := core.MaxFlowWith(dg, s, tt, core.RunOptions{Faults: dropPlan(102)})
	if err != nil {
		t.Fatal(err)
	}
	for name, open := range backends(t) {
		tr := open()
		got, err := core.MaxFlowWith(dg, s, tt, core.RunOptions{Faults: dropPlan(102), Transport: tr})
		if cerr := tr.Close(); cerr != nil {
			t.Fatalf("%s: close: %v", name, cerr)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if base.Value != got.Value {
			t.Fatalf("%s: values diverge: %d != %d", name, got.Value, base.Value)
		}
		for i := range base.Flow {
			if base.Flow[i] != got.Flow[i] {
				t.Fatalf("%s: flows diverge at arc %d", name, i)
			}
		}
		sameRounds(t, name, base.Rounds, got.Rounds)
	}
}

// TestTransportDifferentialEulerClean covers the fault-free path over the
// wire backends — the path flow-tcp serves, where the ring layer's paired
// exchanges and a batched route's batches share delivery barriers — for
// each of flow-tcp's three ops: the Euler orientation of RandomRegular(64,6),
// max flow on LayeredDAG(4,4,2,4), and min-cost flow on the unit-capacity
// LayeredDAG(4,4,2,1) with a 1/-1 demand. The orientation of the irregular
// RandomEulerian(32,8,3,13) rides along: its mixed degrees and parallel
// edges give short rings, where a ring's paired successor and predecessor
// exchanges reach the same slots. With no reliable layer in between, every
// answer, iteration count and round report must equal the in-process run's.
func TestTransportDifferentialEulerClean(t *testing.T) {
	rr, err := graph.RandomRegular(64, 6, 13)
	if err != nil {
		t.Fatal(err)
	}
	eu, err := graph.RandomEulerian(32, 8, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	dag := graph.LayeredDAG(4, 4, 2, 4, 17)
	unit := graph.LayeredDAG(4, 4, 2, 1, 19)
	sigma := make([]int64, unit.N())
	sigma[0], sigma[unit.N()-1] = 1, -1
	ops := []struct {
		name string
		run  func(tr cc.Transport) (result any, rounds core.RoundReport, err error)
	}{
		{"orient", func(tr cc.Transport) (any, core.RoundReport, error) {
			r, err := core.EulerianOrientWith(rr, core.RunOptions{Transport: tr})
			if err != nil {
				return nil, core.RoundReport{}, err
			}
			return r, r.Rounds, nil
		}},
		{"orient-eulerian", func(tr cc.Transport) (any, core.RoundReport, error) {
			r, err := core.EulerianOrientWith(eu, core.RunOptions{Transport: tr})
			if err != nil {
				return nil, core.RoundReport{}, err
			}
			return r, r.Rounds, nil
		}},
		{"maxflow", func(tr cc.Transport) (any, core.RoundReport, error) {
			r, err := core.MaxFlowWith(dag, 0, dag.N()-1, core.RunOptions{Transport: tr})
			if err != nil {
				return nil, core.RoundReport{}, err
			}
			return r, r.Rounds, nil
		}},
		{"mincostflow", func(tr cc.Transport) (any, core.RoundReport, error) {
			r, err := core.MinCostFlowWith(unit, sigma, core.RunOptions{Transport: tr})
			if err != nil {
				return nil, core.RoundReport{}, err
			}
			return r, r.Rounds, nil
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			base, baseRounds, err := op.run(nil)
			if err != nil {
				t.Fatal(err)
			}
			for name, open := range backends(t) {
				tr := open()
				got, gotRounds, err := op.run(tr)
				if cerr := tr.Close(); cerr != nil {
					t.Fatalf("%s: close: %v", name, cerr)
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameRounds(t, name, baseRounds, gotRounds)
				if !reflect.DeepEqual(got, base) {
					t.Fatalf("%s: answer diverges from the in-process run:\n%+v\n%+v", name, got, base)
				}
			}
		})
	}
}
