// Package benchgate implements the perf-regression gate behind
// `make bench-gate`: it loads the checked-in BENCH_*.json baselines,
// re-measures the same suites (re-running `go test -bench` for the timing
// suites, re-executing the fault-differential workloads in-process for the
// round suite), writes the fresh results to BENCH_<suite>.new.json, and
// diffs fresh against baseline under per-metric tolerances.
//
// Timing metrics (ns/op, B/op, allocs/op) are host-dependent and noisy, so
// they gate on generous ratios (see DefaultTolerance). Round counts are
// model quantities — deterministic per plan seed and host-independent — so
// they gate exactly: any drift is a real behavioural change, not noise.
package benchgate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's recorded figures, matching the per-benchmark
// objects of BENCH_engine.json and BENCH_solver.json.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Workload is one fault-differential workload's recorded round counts,
// matching the per-workload objects of BENCH_faults.json.
type Workload struct {
	Instance     string  `json:"instance"`
	CleanRounds  int64   `json:"clean_rounds"`
	FaultyRounds int64   `json:"faulty_rounds"`
	OverheadPct  float64 `json:"overhead_pct"`
}

// Host is the block a BENCH_*.json records about the machine that measured
// it. A fresh file gets the measuring process's block (see MeasuringHost),
// never the baseline's, so a re-record names the host that produced it.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// MeasuringHost returns the running process's host block. The timing
// suites' `go test` children inherit the process's environment, so they
// run at the same GOMAXPROCS.
func MeasuringHost() Host {
	info, _ := os.ReadFile("/proc/cpuinfo")
	return Host{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(string(info)),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
}

// cpuModel returns the first "model name" of a /proc/cpuinfo listing, or
// "unknown" when it names none (no such file, or another OS).
func cpuModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(key) == "model name" {
			if v := strings.TrimSpace(val); v != "" {
				return v
			}
		}
	}
	return "unknown"
}

// File mirrors the BENCH_*.json schema. Fields the gate does not interpret
// (description, headline) pass through as raw JSON so a refreshed file
// keeps them.
type File struct {
	Description string              `json:"description,omitempty"`
	Recorded    string              `json:"recorded,omitempty"`
	Host        json.RawMessage     `json:"host,omitempty"`
	Command     string              `json:"command,omitempty"`
	DropRate    float64             `json:"drop_rate,omitempty"`
	Benchmarks  map[string]Metrics  `json:"benchmarks,omitempty"`
	Workloads   map[string]Workload `json:"workloads,omitempty"`
	Headline    json.RawMessage     `json:"headline,omitempty"`
	// TraceOverhead is the serve suite's informational traced/untraced
	// mean-latency ratio (loadgen -trace-sample); never gated.
	TraceOverhead float64 `json:"trace_overhead,omitempty"`
	Notes         string  `json:"notes,omitempty"`
}

// Load reads and decodes one BENCH_*.json baseline.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// WriteFile encodes f to path with the same two-space indentation the
// checked-in baselines use, so a fresh file diffs cleanly against one.
func (f *File) WriteFile(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchLine matches one result line of `go test -bench -benchmem` output:
//
//	BenchmarkRoute/n=64-8   20000   115499 ns/op   99588 B/op   257 allocs/op
//
// The B/op and allocs/op columns are optional (absent without -benchmem),
// and the -N GOMAXPROCS suffix is absent when GOMAXPROCS=1.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S*)\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op)?(?:\s+([0-9.]+) allocs/op)?`)

var procsSuffix = regexp.MustCompile(`-(\d+)$`)

// ParseBenchOutput extracts the per-benchmark metrics from `go test -bench`
// text output. Benchmark names are normalised by stripping the trailing
// GOMAXPROCS suffix (-8 etc.) so they match the host-independent names the
// baselines record. Non-benchmark lines (PASS, ok, goos headers) are
// ignored; an input with no benchmark lines is an error.
func ParseBenchOutput(r io.Reader) (map[string]Metrics, error) {
	out := map[string]Metrics{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := procsSuffix.ReplaceAllString(m[1], "")
		var met Metrics
		met.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			met.BytesPerOp, _ = strconv.ParseFloat(m[3], 64)
		}
		if m[4] != "" {
			met.AllocsPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		out[name] = met
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchgate: no benchmark result lines in input")
	}
	return out, nil
}

// Tolerance holds the per-metric regression thresholds as fresh/baseline
// ratios: a fresh value above baseline*ratio is a regression. Improvements
// (fresh below baseline) never fail the gate.
type Tolerance struct {
	// Ns gates ns/op. Wall time is the noisiest metric (CPU contention,
	// frequency scaling), so its ratio is the most generous.
	Ns float64
	// Bytes gates B/op. Allocation volume jitters with pool hit rates but
	// far less than wall time.
	Bytes float64
	// Allocs gates allocs/op, the most stable timing-suite metric: a
	// steady-state hot path allocating more is almost always a real leak
	// of allocations into the loop, not noise.
	Allocs float64
}

// DefaultTolerance is the gate's standard thresholds, tuned so an
// unmodified tree passes on a noisy shared host while an accidental
// O(rounds) allocation or a 2x slowdown still fails.
var DefaultTolerance = Tolerance{Ns: 1.75, Bytes: 1.50, Allocs: 1.25}

// Regression is one gate failure: a metric that moved past its threshold,
// or a baseline entry the fresh run no longer produced.
type Regression struct {
	Name     string // benchmark or workload name
	Metric   string // "ns/op", "B/op", "allocs/op", "clean_rounds", ...
	Baseline float64
	Fresh    float64
	Limit    float64 // the threshold Fresh had to stay within
	Missing  bool    // baseline entry absent from the fresh run
}

func (r Regression) String() string {
	if r.Missing {
		return fmt.Sprintf("%s: in baseline but missing from fresh run", r.Name)
	}
	return fmt.Sprintf("%s %s: %.0f -> %.0f (limit %.0f)",
		r.Name, r.Metric, r.Baseline, r.Fresh, r.Limit)
}

// Diff compares fresh benchmark metrics against the baseline under tol and
// returns the regressions, sorted by name for deterministic output. Every
// baseline benchmark must appear in the fresh run; fresh benchmarks absent
// from the baseline (newly added) are ignored. A zero baseline value gates
// nothing for that metric — there is no meaningful ratio.
func Diff(baseline, fresh map[string]Metrics, tol Tolerance) []Regression {
	var regs []Regression
	for name, base := range baseline {
		got, ok := fresh[name]
		if !ok {
			regs = append(regs, Regression{Name: name, Missing: true})
			continue
		}
		check := func(metric string, b, f, ratio float64) {
			if b <= 0 || ratio <= 0 {
				return
			}
			if limit := b * ratio; f > limit {
				regs = append(regs, Regression{
					Name: name, Metric: metric, Baseline: b, Fresh: f, Limit: limit,
				})
			}
		}
		check("ns/op", base.NsPerOp, got.NsPerOp, tol.Ns)
		check("B/op", base.BytesPerOp, got.BytesPerOp, tol.Bytes)
		check("allocs/op", base.AllocsPerOp, got.AllocsPerOp, tol.Allocs)
	}
	sortRegressions(regs)
	return regs
}

// DiffWorkloads compares fresh fault-differential round counts against the
// baseline. Rounds are deterministic model quantities, so the comparison is
// exact: any difference in clean or faulty rounds is a regression (or an
// intentional change that must update the baseline).
func DiffWorkloads(baseline, fresh map[string]Workload) []Regression {
	var regs []Regression
	for name, base := range baseline {
		got, ok := fresh[name]
		if !ok {
			regs = append(regs, Regression{Name: name, Missing: true})
			continue
		}
		if got.CleanRounds != base.CleanRounds {
			regs = append(regs, Regression{
				Name: name, Metric: "clean_rounds",
				Baseline: float64(base.CleanRounds), Fresh: float64(got.CleanRounds),
				Limit: float64(base.CleanRounds),
			})
		}
		if got.FaultyRounds != base.FaultyRounds {
			regs = append(regs, Regression{
				Name: name, Metric: "faulty_rounds",
				Baseline: float64(base.FaultyRounds), Fresh: float64(got.FaultyRounds),
				Limit: float64(base.FaultyRounds),
			})
		}
	}
	sortRegressions(regs)
	return regs
}

func sortRegressions(regs []Regression) {
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Name != regs[j].Name {
			return regs[i].Name < regs[j].Name
		}
		return regs[i].Metric < regs[j].Metric
	})
}
