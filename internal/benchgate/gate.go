package benchgate

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// Suite describes one gated baseline: where its BENCH_*.json lives and how
// to re-measure it. Timing suites re-run `go test -bench`; the faults suite
// re-executes its workloads in-process (Measure is set instead of Bench).
type Suite struct {
	Name     string // "engine", "solver", "faults", "scaling"
	Baseline string // baseline file name, relative to the repo root
	// Bench/Packages re-run a `go test` benchmark suite (timing suites).
	Bench    string   // -bench regexp
	Packages []string // package patterns
	// Measure re-computes deterministic results in-process (round suites).
	Measure func() (map[string]Workload, error)
	// MeasureBench re-measures benchmark-shaped ns/op figures in-process
	// (the serve suite: an in-process daemon driven by the deterministic
	// loadgen workload).
	MeasureBench func() (map[string]Metrics, error)
	// Tol, if non-nil, overrides the gate-wide tolerance for this suite.
	// The serve suite uses it: end-to-end latencies need a wider ns ratio
	// than microbenchmarks.
	Tol *Tolerance
	// KeepProcs records the GOMAXPROCS suffix in normalised names instead of
	// stripping it, and restricts the diff to procs levels the fresh run
	// measured. Set for suites whose figures depend on the processor count.
	KeepProcs bool
	// Bootstrap makes a missing baseline file a first-run measurement (the
	// fresh results gate nothing and are written out to seed the baseline)
	// instead of an error.
	Bootstrap bool
}

// Suites is the gate's registry, one entry per checked-in BENCH_*.json.
// The Bench/Packages pairs are the same ones the Makefile's bench-engine
// and bench-solver targets run.
var Suites = []Suite{
	{
		Name:     "engine",
		Baseline: "BENCH_engine.json",
		Bench:    "BenchmarkEngineRun|BenchmarkRoute",
		Packages: []string{"./internal/cc/"},
	},
	{
		Name:     "solver",
		Baseline: "BENCH_solver.json",
		Bench:    "BenchmarkIPM|BenchmarkSolverSession|BenchmarkCholeskySolveTo|BenchmarkLaplacianCholesky",
		Packages: []string{"./internal/maxflow/", "./internal/lapsolver/", "./internal/linalg/"},
	},
	{
		Name:     "faults",
		Baseline: "BENCH_faults.json",
		Measure:  MeasureFaultWorkloads,
	},
	{
		Name:      "scaling",
		Baseline:  "BENCH_scaling.json",
		Bench:     "BenchmarkScaling",
		Packages:  []string{"./internal/linalg/"},
		KeepProcs: true,
		Bootstrap: true,
	},
	{
		Name:         "serve",
		Baseline:     "BENCH_serve.json",
		MeasureBench: MeasureServeWorkload,
		Tol:          &ServeTolerance,
		Bootstrap:    true,
	},
	{
		Name:         "net",
		Baseline:     "BENCH_net.json",
		MeasureBench: MeasureNetWorkload,
		Tol:          &NetTolerance,
		Bootstrap:    true,
	},
	{
		Name:      "chaos",
		Baseline:  "BENCH_chaos.json",
		Measure:   MeasureChaosWorkloads,
		Bootstrap: true,
	},
}

// SuiteByName returns the registered suite with the given name.
func SuiteByName(name string) (Suite, error) {
	for _, s := range Suites {
		if s.Name == name {
			return s, nil
		}
	}
	known := make([]string, 0, len(Suites))
	for _, s := range Suites {
		known = append(known, s.Name)
	}
	return Suite{}, fmt.Errorf("benchgate: unknown suite %q (known: %s)", name, strings.Join(known, ", "))
}

// Result is the outcome of gating one suite.
type Result struct {
	Suite       Suite
	Baseline    *File
	Fresh       *File // baseline metadata with fresh measurements
	Regressions []Regression
}

// Passed reports whether the suite stayed within tolerance.
func (r *Result) Passed() bool { return len(r.Regressions) == 0 }

// RunGoBench executes one `go test -bench` suite in dir and returns its raw
// output (also streamed to echo if non-nil, so the caller can show
// progress). benchtime is passed through to -benchtime.
func RunGoBench(dir, bench, benchtime string, packages []string, echo io.Writer) ([]byte, error) {
	args := []string{"test", "-run", "xxx", "-bench", bench, "-benchmem", "-benchtime", benchtime}
	args = append(args, packages...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var buf bytes.Buffer
	if echo != nil {
		cmd.Stdout = io.MultiWriter(&buf, echo)
		cmd.Stderr = echo
	} else {
		cmd.Stdout = &buf
		cmd.Stderr = &buf
	}
	if err := cmd.Run(); err != nil {
		if echo == nil {
			return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, buf.Bytes())
		}
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return buf.Bytes(), nil
}

// GateSuite loads the suite's baseline from dir, re-measures, and diffs.
// recorded stamps the fresh file's "recorded" field (the baseline's stamp
// is kept when empty). The fresh measurements are returned in Result.Fresh
// as a complete File ready to write to BENCH_<name>.new.json; the caller
// decides whether to persist it.
func GateSuite(s Suite, dir, benchtime, recorded string, tol Tolerance, echo io.Writer) (*Result, error) {
	base, err := Load(dir + "/" + s.Baseline)
	if err != nil {
		if s.Bootstrap && errors.Is(err, os.ErrNotExist) {
			// First run on this checkout: measure, gate nothing, and let the
			// caller write the fresh file to seed the baseline.
			base = &File{Description: fmt.Sprintf("bootstrap baseline for suite %s", s.Name)}
		} else {
			return nil, err
		}
	}
	fresh := *base // carry description/host/headline through to the .new file
	if recorded != "" {
		fresh.Recorded = recorded
	}

	if s.Tol != nil {
		tol = *s.Tol
	}
	res := &Result{Suite: s, Baseline: base, Fresh: &fresh}
	if s.MeasureBench != nil {
		got, err := s.MeasureBench()
		if err != nil {
			return nil, fmt.Errorf("suite %s: %w", s.Name, err)
		}
		fresh.Benchmarks = got
		res.Regressions = Diff(base.Benchmarks, got, tol)
		return res, nil
	}
	if s.Measure != nil {
		got, err := s.Measure()
		if err != nil {
			return nil, fmt.Errorf("suite %s: %w", s.Name, err)
		}
		fresh.Workloads = got
		res.Regressions = DiffWorkloads(base.Workloads, got)
		return res, nil
	}

	out, err := RunGoBench(dir, s.Bench, benchtime, s.Packages, echo)
	if err != nil {
		return nil, fmt.Errorf("suite %s: %w", s.Name, err)
	}
	got, err := ParseBenchOutputProcs(bytes.NewReader(out), s.KeepProcs)
	if err != nil {
		return nil, fmt.Errorf("suite %s: %w", s.Name, err)
	}
	fresh.Benchmarks = got
	fresh.Command = fmt.Sprintf("go test -run xxx -bench '%s' -benchmem -benchtime %s %s",
		s.Bench, benchtime, strings.Join(s.Packages, " "))
	gated := base.Benchmarks
	if s.KeepProcs {
		gated = FilterByProcs(gated, got)
	}
	res.Regressions = Diff(gated, got, tol)
	return res, nil
}
