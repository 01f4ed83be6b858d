package lapcc_test

// Chaos differential tests: the supervised TCP backend must survive real
// worker-process deaths (SIGKILL) and socket-level mesh faults (connection
// resets, fragmented writes) injected mid-solve, and still produce solution
// vectors, flow values, round ledgers, and injected-fault stats that are
// bit-identical to an undisturbed in-process run. This is the acceptance
// gate of the crash-recovery layer: supervision may change how often bytes
// move, never what the solver computes or what it is charged.

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/metrics"
	"lapcc/internal/trace"
	"lapcc/internal/transport"
	"lapcc/internal/transport/tcp"
)

// chaosKillPlan schedules two worker kills plus socket faults: epoch 0
// resets on 90% of mesh writes (the first mesh incarnation is guaranteed to
// collapse under a reset), later epochs fragment 10% of writes so the
// recovered run keeps exercising reassembly.
func chaosKillPlan(kills ...transport.Kill) *transport.ChaosPlan {
	return &transport.ChaosPlan{Seed: 7, Reset: 0.9, Partial: 0.1, Kills: kills}
}

// chaosTransport boots a supervised 4-process clique of real lapccnode
// subprocesses under the given plan, with a flight recorder attached. When
// the test fails, the recorder's recent-event ring is dumped to
// $LAPCC_ARTIFACT_DIR (or the working directory) so CI preserves the
// transport's last moments alongside the failure.
func chaosTransport(t *testing.T, plan *transport.ChaosPlan) *tcp.Transport {
	t.Helper()
	tr, err := tcp.New(tcp.Options{
		Procs:          4,
		Binary:         nodeBinary(t),
		Supervise:      true,
		BarrierTimeout: 30 * time.Second,
		Chaos:          plan,
		Stderr:         io.Discard,
	})
	if err != nil {
		t.Fatalf("booting supervised tcp transport: %v", err)
	}
	fl := trace.NewFlight(trace.DefaultFlightSize)
	tr.SetFlight(fl, "")
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		dir := os.Getenv("LAPCC_ARTIFACT_DIR")
		if dir == "" {
			dir = "."
		}
		path := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+".flight.jsonl")
		if err := fl.DumpFile(path); err != nil {
			t.Logf("flight dump: %v", err)
		} else {
			t.Logf("flight dump written to %s (%d events)", path, fl.Len())
		}
	})
	return tr
}

// faultCounts reads the reliable layer's injected-fault counters (the
// metrics mirror of cc.FaultStats) out of a run's registry.
func faultCounts(reg *metrics.Registry) [4]int64 {
	var out [4]int64
	for i, typ := range []string{"dropped", "corrupted", "duplicated", "delayed"} {
		out[i] = reg.Counter("lapcc_engine_faults_total", "", "type", typ).Value()
	}
	return out
}

// checkRecovery asserts the supervisor actually did what the plan
// scheduled: both kills executed, at least one extra restart came from a
// socket-level reset, and every restart replayed its barrier.
func checkRecovery(t *testing.T, rec tcp.RecoveryStats) {
	t.Helper()
	if rec.Kills != 2 {
		t.Fatalf("scheduled 2 kills, executed %d (recovery %+v)", rec.Kills, rec)
	}
	if resets := rec.Restarts - rec.Kills - rec.HeartbeatFailures; resets < 1 {
		t.Fatalf("no restart attributable to a connection reset (recovery %+v)", rec)
	}
	if rec.ReplayedBarriers < 3 {
		t.Fatalf("expected >= 3 barrier replays (1 reset + 2 kills), got %d (recovery %+v)", rec.ReplayedBarriers, rec)
	}
	if rec.Respawns < 4 {
		t.Fatalf("workers were never respawned (recovery %+v)", rec)
	}
}

// TestChaosDifferentialLapsolver kills worker 1 before barrier 1 and worker
// 3 before barrier 2 of a supervised Laplacian solve (the batched solver
// packs the whole run into a handful of barriers) (plus an epoch-0 mesh
// reset) and requires the recovered run to match the in-process baseline
// bit for bit: potentials, the full round ledger, and the injected-fault
// counters.
func TestChaosDifferentialLapsolver(t *testing.T) {
	g, err := graph.ConnectedGNM(48, 140, 11)
	if err != nil {
		t.Fatal(err)
	}
	b := linalg.NewVec(48)
	b[0], b[47] = 1, -1

	baseReg := metrics.NewRegistry()
	base, err := core.SolveLaplacianWith(g.Clone(), b, 1e-8, core.RunOptions{
		Faults: dropPlan(101), Metrics: baseReg,
	})
	if err != nil {
		t.Fatal(err)
	}

	tr := chaosTransport(t, chaosKillPlan(
		transport.Kill{Barrier: 1, Proc: 1},
		transport.Kill{Barrier: 2, Proc: 3},
	))
	reg := metrics.NewRegistry()
	got, err := core.SolveLaplacianWith(g.Clone(), b, 1e-8, core.RunOptions{
		Faults: dropPlan(101), Transport: tr, Metrics: reg,
	})
	rec := tr.Recovery()
	tr.Close()
	if err != nil {
		t.Fatalf("chaotic solve: %v", err)
	}

	for i := range base.X {
		if base.X[i] != got.X[i] {
			t.Fatalf("potentials diverge at %d: %v != %v", i, got.X[i], base.X[i])
		}
	}
	sameRounds(t, "chaos", base.Rounds, got.Rounds)
	if bf, gf := faultCounts(baseReg), faultCounts(reg); bf != gf {
		t.Fatalf("fault stats diverge: %v != %v", gf, bf)
	}
	checkRecovery(t, rec)
}

// TestChaosDifferentialMaxflow runs the same gauntlet over MaxFlowWith:
// value, per-arc flows, and the charged ledger survive two mid-solve worker
// kills and an epoch-0 mesh reset unchanged.
func TestChaosDifferentialMaxflow(t *testing.T) {
	dg := graph.LayeredDAG(3, 4, 2, 8, 21)
	s, tt := 0, dg.N()-1
	base, err := core.MaxFlowWith(dg, s, tt, core.RunOptions{Faults: dropPlan(102)})
	if err != nil {
		t.Fatal(err)
	}

	tr := chaosTransport(t, chaosKillPlan(
		transport.Kill{Barrier: 1, Proc: 2},
		transport.Kill{Barrier: 4, Proc: 0},
	))
	got, err := core.MaxFlowWith(dg, s, tt, core.RunOptions{
		Faults: dropPlan(102), Transport: tr,
	})
	rec := tr.Recovery()
	tr.Close()
	if err != nil {
		t.Fatalf("chaotic maxflow: %v", err)
	}

	if base.Value != got.Value {
		t.Fatalf("flow values diverge: %d != %d", got.Value, base.Value)
	}
	for i := range base.Flow {
		if base.Flow[i] != got.Flow[i] {
			t.Fatalf("flows diverge at arc %d", i)
		}
	}
	sameRounds(t, "chaos-flow", base.Rounds, got.Rounds)
	checkRecovery(t, rec)
}
