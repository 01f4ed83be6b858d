// Command loadgen replays the deterministic mixed workload of
// internal/serve against a running lapccd daemon and records per-op
// latency percentiles and run throughput.
//
//	go run ./cmd/loadgen -base http://127.0.0.1:8080
//	go run ./cmd/loadgen -base http://127.0.0.1:8080 -gate
//
// With -gate, the run's ns-per-request is diffed against the checked-in
// BENCH_serve.json under the serve tolerance; per-op p50/p99 latencies are
// recorded in the file's headline as informational data only, because
// per-op percentiles under concurrency measure queueing luck and swing
// several-fold between identical runs. A missing baseline is seeded from
// this run, matching benchgate's bootstrap behavior. Fresh figures are
// always written to -out so a regression can be inspected or accepted by
// copying the file over the baseline.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"lapcc/internal/benchgate"
	"lapcc/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		base        = flag.String("base", "http://127.0.0.1:8080", "daemon base URL")
		requests    = flag.Int("requests", 64, "total requests across the mix")
		concurrency = flag.Int("concurrency", 4, "client workers")
		topologies  = flag.Int("topologies", 2, "distinct solve topologies (fewer than requests = pool hits)")
		n           = flag.Int("n", 48, "vertex count of generated instances")
		seed        = flag.Int64("seed", 1, "workload seed")
		wait        = flag.Duration("wait", 10*time.Second, "wait this long for the daemon's /healthz before starting")
		out         = flag.String("out", "BENCH_serve.new.json", "write fresh figures to this file")
		gate        = flag.Bool("gate", false, "diff fresh figures against -baseline and exit non-zero on regression")
		baseline    = flag.String("baseline", "BENCH_serve.json", "baseline file for -gate (seeded from this run when missing)")
		budgetR     = flag.Int64("budget-rounds", 0, "per-request round budget (0 = unlimited)")
		connRetries = flag.Int("conn-retries", 8, "per-request transport-error retries with exponential backoff (rides through a daemon restart; 0 disables)")
		traceSample = flag.Int("trace-sample", 0, "run every Nth request with ?trace=1 (span summary in the response, full stream at /v1/trace/{id}); 0 disables")
	)
	flag.Parse()

	if err := serve.WaitReady(*base, *wait); err != nil {
		return err
	}
	opts := serve.LoadOptions{
		BaseURL:     *base,
		Requests:    *requests,
		Concurrency: *concurrency,
		Topologies:  *topologies,
		N:           *n,
		Seed:        *seed,
		ConnRetries: *connRetries,
		TraceSample: *traceSample,
	}
	if *budgetR > 0 {
		opts.Budget = &serve.WireBudget{Rounds: *budgetR}
	}
	res, err := serve.RunLoad(opts)
	if err != nil {
		return err
	}

	fmt.Printf("loadgen: %d requests, %d errors, %d shed-retries, %d conn-retries, %.1f req/s (%.2fms/req) over %s\n",
		res.Requests, res.Errors, res.Retries, res.ConnRetries, 1e9/res.NsPerRequest, res.NsPerRequest/1e6, res.Elapsed.Round(time.Millisecond))
	ops := make([]string, 0, len(res.PerOp))
	for op := range res.PerOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		st := res.PerOp[op]
		fmt.Printf("  %-12s %3d reqs  p50 %8.2fms  p99 %8.2fms  mean %8.2fms  errors %d\n",
			op, st.Count, float64(st.P50)/1e6, float64(st.P99)/1e6, float64(st.Mean)/1e6, st.Errors)
	}
	if res.Traced > 0 {
		fmt.Printf("loadgen: %d traced requests (every %d), trace overhead x%.2f\n",
			res.Traced, *traceSample, res.TraceOverhead)
	}
	// Request IDs join client-side outcomes to the daemon's access-log
	// lines and /v1/trace/{id}.
	for _, rt := range res.Retried {
		fmt.Printf("  retried %-12s request %3d  id=%s  shed-retries=%d conn-retries=%d\n",
			rt.Op, rt.Index, orDash(rt.ID), rt.Retries, rt.ConnRetries)
	}
	for _, f := range res.Failures {
		fmt.Printf("  FAILED  %-12s request %3d  id=%s  status=%d code=%s\n",
			f.Op, f.Index, orDash(f.ID), f.Status, f.Code)
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d/%d requests failed", res.Errors, res.Requests)
	}

	fresh := map[string]benchgate.Metrics{"Serve/throughput": {NsPerOp: res.NsPerRequest}}
	headline, err := json.Marshal(res.PerOp)
	if err != nil {
		return err
	}
	f := &benchgate.File{
		Description:   "serving-layer throughput baseline: deterministic loadgen mix against lapccd; per-op p50/p99 latencies recorded in headline",
		Recorded:      time.Now().Format("2006-01-02"),
		Command:       fmt.Sprintf("go run ./cmd/loadgen -requests %d -concurrency %d -topologies %d -n %d -seed %d", *requests, *concurrency, *topologies, *n, *seed),
		Benchmarks:    fresh,
		Headline:      headline,
		TraceOverhead: res.TraceOverhead,
		Notes:         "The gate compares whole-run ns-per-request under the serve tolerance (3.0x). Per-op percentiles are informational: under concurrency they measure queueing luck, not solver speed.",
	}
	if err := f.WriteFile(*out); err != nil {
		return err
	}
	fmt.Printf("loadgen: fresh figures written to %s\n", *out)

	if !*gate {
		return nil
	}
	baseFile, err := benchgate.Load(*baseline)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			if err := f.WriteFile(*baseline); err != nil {
				return err
			}
			fmt.Printf("loadgen: no baseline; seeded %s from this run\n", *baseline)
			return nil
		}
		return err
	}
	regs := benchgate.Diff(baseFile.Benchmarks, fresh, benchgate.ServeTolerance)
	if len(regs) > 0 {
		fmt.Printf("loadgen: FAIL, %d regression(s) against %s\n", len(regs), *baseline)
		for _, r := range regs {
			fmt.Printf("  %s\n", r)
		}
		return fmt.Errorf("serve gate failed")
	}
	fmt.Printf("loadgen: PASS, %d metrics within tolerance of %s\n", len(baseFile.Benchmarks), *baseline)
	return nil
}

// orDash renders an absent request ID as "-" (the request never reached
// the daemon).
func orDash(id string) string {
	if id == "" {
		return "-"
	}
	return id
}
