package lapcc_test

// Distributed trace-plane tests: with a tracer attached to the supervised
// TCP coordinator, every committed barrier also adds each worker's traffic
// to the global timeline as a node-%d subtree, and supervision transitions
// (kills, mesh teardown/respawn, barrier replay) appear as mark events. The
// JSONL stream must be schema-clean and — for a fixed kill schedule —
// byte-identical across runs, because everything in it is derived from
// deterministic quantities (the wall clock stays in the Chrome export and
// the flight recorder).

import (
	"bytes"
	"hash/fnv"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/trace"
	"lapcc/internal/transport"
	"lapcc/internal/transport/tcp"
)

// tracedChaosSolve runs the standard differential instance over a
// supervised 4-worker in-process clique with a kill-only chaos plan and a
// tracer attached to both the run and the transport. It returns the merged
// JSONL stream, the tracer, the solution, and the attached flight recorder.
// Kill-only matters: kills execute and recover inside Deliver under the
// coordinator lock, so heartbeat probes never observe a dead mesh and the
// mark sequence is reproducible; write-fault plans race the heartbeat and
// forfeit byte determinism by design.
func tracedChaosSolve(t *testing.T) (string, *trace.Tracer, []float64, *trace.Flight) {
	t.Helper()
	g, err := graph.ConnectedGNM(48, 140, 11)
	if err != nil {
		t.Fatal(err)
	}
	b := linalg.NewVec(48)
	b[0], b[47] = 1, -1

	tr, err := tcp.New(tcp.Options{
		Procs:          4,
		Supervise:      true,
		BarrierTimeout: 30 * time.Second,
		Chaos: &transport.ChaosPlan{Seed: 7, Kills: []transport.Kill{
			{Barrier: 1, Proc: 1},
			{Barrier: 2, Proc: 3},
		}},
		Stderr: io.Discard,
	})
	if err != nil {
		t.Fatalf("booting supervised tcp transport: %v", err)
	}
	tracer := trace.New()
	tr.SetTracer(tracer)
	fl := trace.NewFlight(512)
	tr.SetFlight(fl, "")

	// The batched solver fits an undisturbed run into a single barrier;
	// the deterministic drop plan forces retransmission rounds so the kill
	// schedule at barriers 1 and 2 actually lands (the plan's faults are
	// seeded, so they do not perturb byte determinism).
	res, err := core.SolveLaplacianWith(g, b, 1e-8, core.RunOptions{
		Transport: tr, Trace: tracer, Faults: dropPlan(101),
	})
	rec := tr.Recovery()
	tr.Close()
	if err != nil {
		t.Fatalf("traced chaotic solve: %v", err)
	}
	if rec.Kills != 2 {
		t.Fatalf("scheduled 2 kills, executed %d (recovery %+v)", rec.Kills, rec)
	}

	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatalf("writing merged JSONL: %v", err)
	}
	return buf.String(), tracer, res.X, fl
}

// The merged JSONL stream of tracedChaosSolve: its line count, and the
// FNV-1a digest of its bytes, which is compared on amd64 only, as
// TestGolden compares answer digests.
const (
	tracedChaosLines         = 408
	tracedChaosDigest uint64 = 0x81c91afb5feb9a3c
)

// TestDistributedTraceDeterminism runs the traced chaos solve twice and
// requires the merged timelines to be byte-identical: worker subtree merge
// order is fixed (node index, then span open sequence), supervision marks
// carry no wall-clock or error text, and only committed barrier attempts
// contribute worker records. The stream must also equal the pinned one, so
// a change that moves the bytes of both runs alike fails too.
func TestDistributedTraceDeterminism(t *testing.T) {
	j1, _, x1, _ := tracedChaosSolve(t)
	j2, _, x2, _ := tracedChaosSolve(t)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("solutions diverge at %d across traced runs", i)
		}
	}
	if j1 != j2 {
		l1, l2 := strings.Split(j1, "\n"), strings.Split(j2, "\n")
		n := len(l1)
		if len(l2) < n {
			n = len(l2)
		}
		for i := 0; i < n; i++ {
			if l1[i] != l2[i] {
				t.Fatalf("merged JSONL diverges at line %d:\n  run1: %s\n  run2: %s\n(%d vs %d lines)",
					i+1, l1[i], l2[i], len(l1), len(l2))
			}
		}
		t.Fatalf("merged JSONL diverges in length: %d vs %d lines", len(l1), len(l2))
	}
	if lines := strings.Count(j1, "\n"); lines != tracedChaosLines {
		t.Fatalf("merged JSONL holds %d lines, want %d", lines, tracedChaosLines)
	}
	h := fnv.New64a()
	io.WriteString(h, j1)
	if d := h.Sum64(); runtime.GOARCH == "amd64" && d != tracedChaosDigest {
		t.Fatalf("merged JSONL digest %#016x, want %#016x", d, tracedChaosDigest)
	}
	if err := trace.ValidateJSONL(strings.NewReader(j1)); err != nil {
		t.Fatalf("merged JSONL fails validation: %v", err)
	}

	// The merged timeline must contain every worker's subtree and the
	// supervision story of the kill schedule.
	for _, want := range []string{
		`"name":"node-0"`, `"name":"node-1"`, `"name":"node-2"`, `"name":"node-3"`,
		`"name":"chaos-kill"`, `"name":"mesh-teardown"`, `"name":"mesh-respawn"`,
		`"name":"barrier-failed"`, `"name":"replay"`, `"name":"replay-verified"`,
	} {
		if !strings.Contains(j1, want) {
			t.Fatalf("merged JSONL missing %s", want)
		}
	}
}

// TestDistributedTraceFlightRecorder checks the wall-clock side channel:
// the flight ring holds the kill/teardown/respawn/replay story with
// timestamps, its JSONL dump is schema-clean, and the deterministic trace
// plane never absorbed any of it.
func TestDistributedTraceFlightRecorder(t *testing.T) {
	_, _, _, fl := tracedChaosSolve(t)
	if fl.Len() == 0 {
		t.Fatal("flight recorder saw no transport events")
	}
	kinds := map[string]int{}
	for _, ev := range fl.Events() {
		kinds[ev.Kind]++
	}
	for _, want := range []string{"kill", "mesh-teardown", "mesh-respawn", "replay", "barrier-commit"} {
		if kinds[want] == 0 {
			t.Fatalf("flight recorder missing %q events (saw %v)", want, kinds)
		}
	}
	if kinds["kill"] != 2 {
		t.Fatalf("flight recorder saw %d kills, want 2 (%v)", kinds["kill"], kinds)
	}
	var buf bytes.Buffer
	if err := fl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateFlightJSONL(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("flight JSONL fails validation: %v", err)
	}
}

// TestDistributedTraceLocalEquivalence compares the traced tcp run against
// a plain local traced run at the phase level: outside the node-%d worker
// subtrees, the two runs must attribute identical measured/charged rounds
// and messages to identical span paths — the observability mirror of the
// bit-identical-answers transport contract.
func TestDistributedTraceLocalEquivalence(t *testing.T) {
	g, err := graph.ConnectedGNM(48, 140, 11)
	if err != nil {
		t.Fatal(err)
	}
	b := linalg.NewVec(48)
	b[0], b[47] = 1, -1

	localTr := trace.New()
	localRes, err := core.SolveLaplacianWith(g, b, 1e-8, core.RunOptions{Trace: localTr, Faults: dropPlan(101)})
	if err != nil {
		t.Fatal(err)
	}

	_, meshTracer, x, _ := tracedChaosSolve(t)
	for i := range x {
		if x[i] != localRes.X[i] {
			t.Fatalf("traced tcp solution diverges from local at %d", i)
		}
	}

	type row struct {
		calls             int
		measured, charged int64
		messages          int64
	}
	phaseRows := func(tr *trace.Tracer) map[string]row {
		out := map[string]row{}
		for _, ph := range tr.Phases() {
			if strings.Contains(ph.Path, "node-") {
				continue
			}
			out[ph.Path] = row{ph.Calls, ph.MeasuredRounds, ph.ChargedRounds, ph.Messages}
		}
		return out
	}

	localRows, tcpRows := phaseRows(localTr), phaseRows(meshTracer)
	if len(localRows) == 0 {
		t.Fatal("local run attributed no phases")
	}
	for path, lr := range localRows {
		if tr, ok := tcpRows[path]; !ok {
			t.Fatalf("phase %q missing from the tcp run", path)
		} else if tr != lr {
			t.Fatalf("phase %q diverges: local %+v, tcp %+v", path, lr, tr)
		}
	}
	for path := range tcpRows {
		if _, ok := localRows[path]; !ok {
			t.Fatalf("tcp run has extra non-worker phase %q", path)
		}
	}
}
