package benchgate

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: lapcc/internal/cc
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineRun/reference 	      33	  72049062 ns/op	53884552 B/op	  273773 allocs/op
BenchmarkEngineRun/sequential-8 	     506	   4738698 ns/op	      56 B/op	       6 allocs/op
BenchmarkRoute/n=64 	   20790	    115499 ns/op	   99588 B/op	     257 allocs/op
BenchmarkNoMem 	     100	    123456 ns/op
PASS
ok  	lapcc/internal/cc	42.0s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(got), got)
	}
	ref := got["BenchmarkEngineRun/reference"]
	if ref.NsPerOp != 72049062 || ref.BytesPerOp != 53884552 || ref.AllocsPerOp != 273773 {
		t.Fatalf("reference metrics wrong: %+v", ref)
	}
	// The -8 GOMAXPROCS suffix must be stripped so names match baselines
	// recorded on a GOMAXPROCS=1 host.
	if _, ok := got["BenchmarkEngineRun/sequential"]; !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", got)
	}
	// Sub-benchmark names containing digits keep them.
	if _, ok := got["BenchmarkRoute/n=64"]; !ok {
		t.Fatalf("sub-benchmark name mangled: %v", got)
	}
	// ns-only line (no -benchmem columns) still parses.
	if got["BenchmarkNoMem"].NsPerOp != 123456 {
		t.Fatalf("ns-only line not parsed: %+v", got["BenchmarkNoMem"])
	}
}

func TestParseBenchOutputEmpty(t *testing.T) {
	if _, err := ParseBenchOutput(strings.NewReader("PASS\nok\n")); err == nil {
		t.Fatal("want error for input with no benchmark lines")
	}
}

func TestDiffWithinTolerancePasses(t *testing.T) {
	base := map[string]Metrics{
		"BenchmarkA": {NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10},
	}
	fresh := map[string]Metrics{
		"BenchmarkA": {NsPerOp: 1700, BytesPerOp: 140, AllocsPerOp: 12},
		"BenchmarkB": {NsPerOp: 999999}, // new benchmark: not gated
	}
	if regs := Diff(base, fresh, DefaultTolerance); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestDiffFlagsPerturbedMetric(t *testing.T) {
	base := map[string]Metrics{
		"BenchmarkA": {NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10},
	}
	fresh := map[string]Metrics{
		// allocs 10 -> 20 breaches the 1.25x allocs tolerance; the other
		// metrics stay inside theirs.
		"BenchmarkA": {NsPerOp: 1100, BytesPerOp: 110, AllocsPerOp: 20},
	}
	regs := Diff(base, fresh, DefaultTolerance)
	if len(regs) != 1 {
		t.Fatalf("want exactly the allocs regression, got %v", regs)
	}
	if regs[0].Metric != "allocs/op" || regs[0].Fresh != 20 {
		t.Fatalf("wrong regression: %+v", regs[0])
	}
	if !strings.Contains(regs[0].String(), "allocs/op") {
		t.Fatalf("unhelpful message: %q", regs[0].String())
	}
}

func TestDiffFlagsMissingBenchmark(t *testing.T) {
	base := map[string]Metrics{"BenchmarkGone": {NsPerOp: 1}}
	regs := Diff(base, map[string]Metrics{}, DefaultTolerance)
	if len(regs) != 1 || !regs[0].Missing {
		t.Fatalf("want one missing-benchmark regression, got %v", regs)
	}
}

func TestDiffImprovementsPass(t *testing.T) {
	base := map[string]Metrics{"BenchmarkA": {NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10}}
	fresh := map[string]Metrics{"BenchmarkA": {NsPerOp: 10, BytesPerOp: 1, AllocsPerOp: 0}}
	if regs := Diff(base, fresh, DefaultTolerance); len(regs) != 0 {
		t.Fatalf("improvements must not fail the gate: %v", regs)
	}
}

func TestDiffWorkloadsExact(t *testing.T) {
	base := map[string]Workload{
		"lapsolver": {CleanRounds: 314, FaultyRounds: 321},
	}
	same := map[string]Workload{
		"lapsolver": {CleanRounds: 314, FaultyRounds: 321},
	}
	if regs := DiffWorkloads(base, same); len(regs) != 0 {
		t.Fatalf("identical rounds must pass: %v", regs)
	}
	// Round counts are deterministic: a single extra round is a regression.
	drift := map[string]Workload{
		"lapsolver": {CleanRounds: 314, FaultyRounds: 322},
	}
	regs := DiffWorkloads(base, drift)
	if len(regs) != 1 || regs[0].Metric != "faulty_rounds" {
		t.Fatalf("want the faulty_rounds drift flagged, got %v", regs)
	}
}

// TestGatePerturbedBaselineFails is the acceptance check for the gate
// wiring: against a baseline whose metrics were perturbed past threshold,
// the gate must report regressions (cmd/benchgate turns any regression
// into a non-zero exit). The faults suite is used because its in-process
// re-measure is fast and fully deterministic.
func TestGatePerturbedBaselineFails(t *testing.T) {
	repoRoot := "../.."
	s, err := SuiteByName("faults")
	if err != nil {
		t.Fatal(err)
	}

	// Unmodified baseline: the gate passes.
	clean, err := GateSuite(s, repoRoot, "", "", DefaultTolerance, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Passed() {
		t.Fatalf("gate fails on unmodified tree: %v", clean.Regressions)
	}

	// Perturb one round count in a copied baseline: the gate must fail.
	base, err := Load(filepath.Join(repoRoot, s.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	wl := base.Workloads["lapsolver"]
	wl.FaultyRounds += 40
	base.Workloads["lapsolver"] = wl
	dir := t.TempDir()
	if err := base.WriteFile(filepath.Join(dir, s.Baseline)); err != nil {
		t.Fatal(err)
	}
	perturbed, err := GateSuite(s, dir, "", "", DefaultTolerance, nil)
	if err != nil {
		t.Fatal(err)
	}
	if perturbed.Passed() {
		t.Fatal("gate passed against a perturbed baseline")
	}
	found := false
	for _, r := range perturbed.Regressions {
		if r.Name == "lapsolver" && r.Metric == "faulty_rounds" {
			found = true
		}
	}
	if !found {
		t.Fatalf("perturbed metric not flagged: %v", perturbed.Regressions)
	}
	// The fresh measurements are still written out for inspection.
	if perturbed.Fresh.Workloads["lapsolver"].FaultyRounds == wl.FaultyRounds {
		t.Fatal("fresh measurement echoed the perturbed baseline")
	}
}

// TestFreshFileNamesMeasuringHost: a re-measured file carries the running
// process's host block, not the baseline's, and keeps the baseline's
// description and headline.
func TestFreshFileNamesMeasuringHost(t *testing.T) {
	dir := t.TempDir()
	base := &File{
		Description: "a baseline",
		Host:        json.RawMessage(`{"goos":"plan9","goarch":"386","cpu":"Old CPU","gomaxprocs":64,"go":"go1.1"}`),
		Workloads:   map[string]Workload{"w": {Instance: "i", CleanRounds: 3, FaultyRounds: 4}},
		Headline:    json.RawMessage(`{"note":"kept"}`),
	}
	if err := base.WriteFile(filepath.Join(dir, "BENCH_x.json")); err != nil {
		t.Fatal(err)
	}
	s := Suite{Name: "x", Baseline: "BENCH_x.json", Measure: func() (map[string]Workload, error) {
		return base.Workloads, nil
	}}
	res, err := GateSuite(s, dir, "", "", DefaultTolerance, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Host
	if err := json.Unmarshal(res.Fresh.Host, &got); err != nil {
		t.Fatal(err)
	}
	if want := MeasuringHost(); got != want {
		t.Fatalf("fresh host block %+v, want the measuring host %+v", got, want)
	}
	if got.GOMAXPROCS != runtime.GOMAXPROCS(0) || got.Go != runtime.Version() || got.GOOS != runtime.GOOS || got.GOARCH != runtime.GOARCH {
		t.Fatalf("host block %+v does not describe this process", got)
	}
	var headline bytes.Buffer
	if err := json.Compact(&headline, res.Fresh.Headline); err != nil {
		t.Fatal(err)
	}
	if res.Fresh.Description != base.Description || headline.String() != string(base.Headline) {
		t.Fatalf("description %q and headline %s not kept", res.Fresh.Description, res.Fresh.Headline)
	}
}

func TestCPUModel(t *testing.T) {
	info := "processor\t: 0\nvendor_id\t: AuthenticAMD\nmodel name\t: AMD EPYC 7B13\nflags\t\t: fpu\n\nprocessor\t: 1\nmodel name\t: AMD EPYC 7B13\n"
	if got := cpuModel(info); got != "AMD EPYC 7B13" {
		t.Fatalf("cpuModel = %q", got)
	}
	for _, info := range []string{"", "processor\t: 0\n", "model name\t:   \n"} {
		if got := cpuModel(info); got != "unknown" {
			t.Fatalf("cpuModel(%q) = %q, want unknown", info, got)
		}
	}
}
