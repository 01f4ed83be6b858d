// Command benchgate is the perf-regression gate behind `make bench-gate`:
// it re-measures the recorded benchmark suites, writes the fresh results to
// BENCH_<suite>.new.json next to the baselines, and diffs fresh against the
// checked-in BENCH_*.json under per-metric tolerances. Exit status is
// non-zero when any metric regressed past its threshold.
//
//	go run ./cmd/benchgate                    # gate all suites
//	go run ./cmd/benchgate -suites faults     # just the deterministic rounds
//	go run ./cmd/benchgate -benchtime 2s      # baseline-fidelity timings
//	go run ./cmd/benchgate -write-only        # refresh BENCH_*.new.json, no gate
//
// Timing suites (engine, solver) gate on ratios — ns/op within 1.75x,
// B/op within 1.5x, allocs/op within 1.25x of baseline — because wall
// time is host-noisy. The faults suite compares round counts exactly:
// rounds are deterministic model quantities, so any drift is a real
// behavioural change. To accept an intentional change, copy the written
// BENCH_<suite>.new.json over the baseline (restoring the headline
// commentary by hand where it changed).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"lapcc/internal/benchgate"
)

func main() {
	var (
		suites    = flag.String("suites", "engine,solver,faults,serve,net,chaos", "comma-separated suites to gate")
		benchtime = flag.String("benchtime", "1s", "-benchtime for the timing suites (the baselines were recorded at 2s)")
		dir       = flag.String("dir", ".", "repo root holding the BENCH_*.json baselines")
		writeNew  = flag.Bool("write", true, "write fresh results to BENCH_<suite>.new.json")
		writeOnly = flag.Bool("write-only", false, "re-measure and write BENCH_<suite>.new.json without gating")
		quiet     = flag.Bool("q", false, "suppress the streamed `go test -bench` output")
		nsTol     = flag.Float64("tol-ns", benchgate.DefaultTolerance.Ns, "ns/op regression ratio")
		bTol      = flag.Float64("tol-bytes", benchgate.DefaultTolerance.Bytes, "B/op regression ratio")
		aTol      = flag.Float64("tol-allocs", benchgate.DefaultTolerance.Allocs, "allocs/op regression ratio")
	)
	flag.Parse()

	tol := benchgate.Tolerance{Ns: *nsTol, Bytes: *bTol, Allocs: *aTol}
	recorded := time.Now().Format("2006-01-02")
	failed := false
	for _, name := range strings.Split(*suites, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		s, err := benchgate.SuiteByName(name)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("== suite %s (baseline %s)\n", s.Name, s.Baseline)
		var echo io.Writer
		if !*quiet {
			echo = os.Stdout
		}
		res, err := benchgate.GateSuite(s, *dir, *benchtime, recorded, tol, echo)
		if err != nil {
			fatal(err)
		}
		if *writeNew || *writeOnly {
			out := *dir + "/" + strings.TrimSuffix(s.Baseline, ".json") + ".new.json"
			if err := res.Fresh.WriteFile(out); err != nil {
				fatal(err)
			}
			fmt.Printf("   fresh results written to %s\n", out)
		}
		if *writeOnly {
			continue
		}
		if res.Passed() {
			fmt.Printf("   PASS: %d metrics within tolerance\n", gated(res))
			continue
		}
		failed = true
		fmt.Printf("   FAIL: %d regression(s)\n", len(res.Regressions))
		for _, r := range res.Regressions {
			fmt.Printf("     %s\n", r)
		}
	}
	if failed {
		fmt.Println("bench-gate: FAIL")
		os.Exit(1)
	}
	if !*writeOnly {
		fmt.Println("bench-gate: PASS")
	}
}

// gated counts the baseline entries the suite compared, for the PASS line.
func gated(res *benchgate.Result) int {
	if res.Baseline.Workloads != nil {
		return len(res.Baseline.Workloads)
	}
	return len(res.Baseline.Benchmarks)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(2)
}
