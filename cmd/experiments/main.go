// Command experiments regenerates every experiment table in EXPERIMENTS.md
// (E1-E16; E10 and E15 are retired), reproducing the quantitative claims of
// the paper's theorems as scaling measurements. See DESIGN.md section 5 for
// the experiment index.
//
//	go run ./cmd/experiments            # all experiments
//	go run ./cmd/experiments -run E3,E5 # a subset (any case; unknown IDs fail)
//	go run ./cmd/experiments -quick     # smaller sweeps
//	go run ./cmd/experiments -trace out.json  # traced stack profile only
//	go run ./cmd/experiments -faults seed=1,drop=0.01 -run E2
//	go run ./cmd/experiments -debug-addr localhost:6060 -run E5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lapcc/internal/cc"
	"lapcc/internal/cli"
	"lapcc/internal/experiments"
	"lapcc/internal/trace"
)

func main() {
	runFlag := flag.String("run", "all", "comma-separated experiment ids (E1..E16, any case) or 'all'")
	quick := flag.Bool("quick", false, "smaller parameter sweeps")
	trOut := flag.String("trace", "", "run one traced solve per algorithm and write a Chrome trace_event file")
	trEv := flag.String("trace-events", "", "like -trace but writing the deterministic JSONL event stream")
	faults := flag.String("faults", "", "deterministic fault plan applied to every solver run, e.g. 'seed=1,drop=0.01' (see cc.ParseFaultPlan)")
	budget := flag.String("budget", "", "per-solver-run budget: 'rounds=N,wall=DUR' or bare round count 'N'")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address (e.g. localhost:6060) for the duration of the run")
	debugHold := flag.Duration("debug-hold", 0, "keep the -debug-addr server up this long after the run (for scraping short runs)")
	flag.Parse()

	if err := run(*runFlag, *quick, *trOut, *trEv, *faults, *budget, *debugAddr, *debugHold); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(runFlag string, quick bool, trOut, trEv, faults, budget, debugAddr string, debugHold time.Duration) error {
	selected, err := selectExperiments(runFlag)
	if err != nil {
		return err
	}
	cfg := experiments.Config{BudgetSpec: budget}
	if faults != "" {
		plan, err := cc.ParseFaultPlan(faults)
		if err != nil {
			return err
		}
		cfg.Faults = plan
		fmt.Printf("faults: %s\n", plan)
	}
	if debugAddr != "" {
		d, err := cli.StartDebug(os.Stdout, debugAddr, nil)
		if err != nil {
			return err
		}
		defer d.Stop(debugHold)
		cfg.Metrics = d.Registry
	}
	if err := experiments.Configure(cfg); err != nil {
		return err
	}

	if trOut != "" || trEv != "" {
		tr := trace.New()
		if err := experiments.TraceProfile(os.Stdout, quick, tr); err != nil {
			return fmt.Errorf("trace profile failed: %w", err)
		}
		if err := tr.WriteFiles(trOut, trEv); err != nil {
			return fmt.Errorf("trace export failed: %w", err)
		}
		for _, p := range []string{trOut, trEv} {
			if p != "" {
				fmt.Printf("trace: wrote %s\n", p)
			}
		}
		return nil
	}

	for _, e := range selected {
		fmt.Printf("\n================================================================\n%s\n================================================================\n", e.Title)
		if err := e.Run(os.Stdout, quick); err != nil {
			return fmt.Errorf("%s failed: %w", e.ID, err)
		}
	}
	return nil
}

// selectExperiments resolves the -run flag against the registry: "all", or
// comma-separated IDs in any case with optional spaces. The selection keeps
// registry order; an ID the registry does not know is an error naming the
// known ones.
func selectExperiments(runFlag string) ([]experiments.Experiment, error) {
	all := experiments.All()
	if runFlag == "all" {
		return all, nil
	}
	known := make(map[string]bool, len(all))
	ids := make([]string, len(all))
	for i, e := range all {
		known[e.ID] = true
		ids[i] = e.ID
	}
	want := map[string]bool{}
	var unknown []string
	for _, id := range strings.Split(runFlag, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if !known[id] {
			unknown = append(unknown, id)
		}
		want[id] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment id %s (known: %s)",
			strings.Join(unknown, ", "), strings.Join(ids, ", "))
	}
	var out []experiments.Experiment
	for _, e := range all {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}
