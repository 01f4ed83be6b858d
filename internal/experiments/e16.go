package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"lapcc/internal/cc"
	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/trace"
	"lapcc/internal/transport"
	"lapcc/internal/transport/tcp"
)

// --- E16 ------------------------------------------------------------------

// e16DistributedTrace exercises the distributed trace plane and the crash
// flight recorder end to end (DESIGN.md §15): the Theorem 1.1 solver runs
// over a supervised 4-worker mesh whose chaos plan kills two workers
// mid-solve, with a tracer attached to both the run and the transport. The
// tables show (a) the phase profile — the solver's phases plus the node-N
// subtrees in which the coordinator records each worker's traffic per
// committed barrier — with the supervision mark counts, and (b) the flight
// recorder's event histogram, the wall-clock half of the story. The
// headline check is the determinism contract: the JSONL timeline of a
// second same-seed chaotic run must be byte-identical.
func e16DistributedTrace(w io.Writer, quick bool) error {
	const n, m, seed = 48, 140, 11
	g, err := graph.ConnectedGNM(n, m, seed)
	if err != nil {
		return err
	}
	b := linalg.NewVec(n)
	b[0], b[n-1] = 1, -1
	// The deterministic drop plan forces retransmission rounds, so the
	// solve spans several barriers and the kill schedule lands.
	faults := &cc.FaultPlan{Seed: 101, Drop: 0.01}

	run := func() (string, *trace.Tracer, *trace.Flight, tcp.RecoveryStats, error) {
		tr, err := tcp.New(tcp.Options{
			Procs: 4, Supervise: true, BarrierTimeout: 30 * time.Second,
			Chaos: &transport.ChaosPlan{Seed: 7, Kills: []transport.Kill{
				{Barrier: 1, Proc: 1}, {Barrier: 2, Proc: 3},
			}},
			Stderr: io.Discard,
		})
		if err != nil {
			return "", nil, nil, tcp.RecoveryStats{}, err
		}
		tracer := trace.New()
		tr.SetTracer(tracer)
		fl := trace.NewFlight(512)
		tr.SetFlight(fl, "")
		_, serr := core.SolveLaplacianWith(g.Clone(), b, 1e-8, core.RunOptions{
			Transport: tr, Trace: tracer, Faults: faults,
		})
		rec := tr.Recovery()
		tr.Close()
		if serr != nil {
			return "", nil, nil, rec, serr
		}
		var buf bytes.Buffer
		if err := tracer.WriteJSONL(&buf); err != nil {
			return "", nil, nil, rec, err
		}
		return buf.String(), tracer, fl, rec, nil
	}

	jsonl, tracer, fl, rec, err := run()
	if err != nil {
		return fmt.Errorf("e16: chaotic traced solve: %w", err)
	}
	if err := trace.ValidateJSONL(strings.NewReader(jsonl)); err != nil {
		return fmt.Errorf("e16: merged timeline invalid: %w", err)
	}
	fmt.Fprintf(w, "supervised 4-worker mesh, kills at barriers 1 and 2: %d kills, %d respawns, %d replayed barriers, final epoch %d\n\n",
		rec.Kills, rec.Respawns, rec.ReplayedBarriers, rec.HeartbeatFailures+rec.Restarts)

	fmt.Fprintf(w, "-- merged phase profile (per-phase round attribution; node-N rows are worker subtrees) --\n")
	fmt.Fprintf(w, "%-44s %6s %9s %8s %10s\n", "phase", "calls", "measured", "charged", "messages")
	phases := tracer.Phases()
	limit := len(phases)
	if quick && limit > 8 {
		limit = 8
	}
	for _, ph := range phases[:limit] {
		fmt.Fprintf(w, "%-44s %6d %9d %8d %10d\n", clipPath(ph.Path, 44), ph.Calls, ph.MeasuredRounds, ph.ChargedRounds, ph.Messages)
	}
	fmt.Fprintf(w, "attributed fraction: %.3f\n\n", tracer.AttributedFraction())

	marks := map[string]int{}
	for _, line := range strings.Split(jsonl, "\n") {
		if strings.Contains(line, `"ev":"mark"`) {
			for _, kind := range []string{"chaos-kill", "mesh-teardown", "mesh-respawn", "barrier-failed", "replay-verified", "replay"} {
				if strings.Contains(line, `"name":"`+kind+`"`) {
					marks[kind]++
					break
				}
			}
		}
	}
	fmt.Fprintf(w, "-- supervision marks in the deterministic timeline --\n")
	printHistogram(w, marks)

	kinds := map[string]int{}
	for _, ev := range fl.Events() {
		kinds[ev.Kind]++
	}
	fmt.Fprintf(w, "\n-- flight recorder (wall-clock side channel, %d events held) --\n", fl.Len())
	printHistogram(w, kinds)

	// The determinism contract: a second same-seed chaotic run writes
	// byte-identical JSONL.
	jsonl2, _, _, _, err := run()
	if err != nil {
		return fmt.Errorf("e16: second run: %w", err)
	}
	identical := "yes"
	if jsonl2 != jsonl {
		identical = "NO"
	}
	fmt.Fprintf(w, "\nmerged timeline: %d JSONL lines; byte-identical across same-seed chaotic runs: %s\n",
		strings.Count(jsonl, "\n"), identical)
	if identical != "yes" {
		return fmt.Errorf("e16: merged trace timelines diverge across same-seed runs")
	}
	fmt.Fprintln(w, "\nclaim shape: one schema-valid merged timeline with node-N worker subtrees and")
	fmt.Fprintln(w, "supervision marks, byte-identical across same-seed chaotic runs; wall-clock")
	fmt.Fprintln(w, "detail (timestamps, error text) appears only in the flight recorder")
	return nil
}

func clipPath(p string, max int) string {
	if len(p) <= max {
		return p
	}
	return "..." + p[len(p)-(max-3):]
}

func printHistogram(w io.Writer, counts map[string]int) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-24s %4d\n", k, counts[k])
	}
}
