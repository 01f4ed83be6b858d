package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {1, 1}, {100, 10}} {
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	// With 200 samples p95 is the 190th value: ten samples lie beyond it.
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := nearestRank(big, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := nearestRank([]float64{7}, 95); got != 7 {
		t.Errorf("p95 of one sample = %v, want 7", got)
	}
}

func TestCompletedFloor(t *testing.T) {
	if err := checkCompleted(minCompleted-1, minCompleted); !errors.Is(err, errTooFew) {
		t.Fatalf("%d completed: err = %v, want errTooFew", minCompleted-1, err)
	}
	if err := checkCompleted(minCompleted, minCompleted); err != nil {
		t.Fatalf("%d completed: %v", minCompleted, err)
	}
}

func TestBodiesFollowSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := w.generate(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.generate(7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.generate(8)
		if err != nil {
			t.Fatal(err)
		}
		differs := false
		for i := range a.instances {
			if !bytes.Equal(a.instances[i].body, b.instances[i].body) {
				t.Fatalf("%s: instance %d differs between two generations with seed 7", w.name, i)
			}
			differs = differs || !bytes.Equal(a.instances[i].body, c.instances[i].body)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generate the same bodies", w.name)
		}
		if len(a.warm) == 0 || len(a.schedule) == 0 {
			t.Errorf("%s: empty warm-up or schedule", w.name)
		}
	}
}

// mixed-cold only misses if every topology recurs after more distinct
// topologies than the pool holds.
func TestMixedColdCyclesPastPool(t *testing.T) {
	p, err := mixedCold(1)
	if err != nil {
		t.Fatal(err)
	}
	const pool = 8
	last := map[int]int{}
	for i := 0; i < 3*len(p.schedule); i++ {
		inst := p.at(i)
		op := p.instances[inst].op
		if op != "solve" && op != "sparsify" {
			continue
		}
		if j, ok := last[inst]; ok {
			between := map[int]bool{}
			for k := j + 1; k < i; k++ {
				if o := p.at(k); p.instances[o].op == op {
					between[o] = true
				}
			}
			if len(between) <= pool {
				t.Fatalf("%s instance %d recurs after %d distinct others; pool holds %d", op, inst, len(between), pool)
			}
		}
		last[inst] = i
	}
}

func TestSplitArithmetic(t *testing.T) {
	// 10 ms client latency: 1 http, 2 serve, 3 solver, 1 step, 1 merge, 2 transport.
	got := splitLatency(10, 9, 7, 1, 3, 2)
	want := split{HTTP: 0.1, Serve: 0.2, Compute: 0.3, CCStep: 0.1, CCMerge: 0.1, Transport: 0.2}
	sum := 0.0
	for _, p := range [][2]float64{
		{got.HTTP, want.HTTP}, {got.Serve, want.Serve}, {got.Compute, want.Compute},
		{got.CCStep, want.CCStep}, {got.CCMerge, want.CCMerge}, {got.Transport, want.Transport},
	} {
		if math.Abs(p[0]-p[1]) > 1e-12 {
			t.Fatalf("split = %+v, want %+v", got, want)
		}
		sum += p[0]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	// A replay slower than the handler clamps serve at zero instead of
	// going negative.
	if s := splitLatency(10, 9, 9.5, 0, 0, 0); s.Serve != 0 || s.Compute != 0.95 {
		t.Errorf("clamped split = %+v", s)
	}
	if s := splitLatency(0, 0, 0, 0, 0, 0); s != (split{}) {
		t.Errorf("empty split = %+v", s)
	}
	r := replayResult{handler: 10 * time.Millisecond, decode: time.Millisecond, encode: time.Millisecond, core: 7 * time.Millisecond}
	if c := coverage(r); math.Abs(c-0.9) > 1e-12 {
		t.Errorf("coverage = %v, want 0.9", c)
	}
}

func TestRoundsDigest(t *testing.T) {
	mk := func(rounds ...int64) []sample {
		s := make([]sample, len(rounds))
		for i, r := range rounds {
			s[i] = sample{idx: i, out: outcome{rounds: r}}
		}
		return s
	}
	d1, mean, err := roundsDigest(mk(4, 6, 9), 2)
	if err != nil || mean != 5 {
		t.Fatalf("digest over 2: mean %v err %v", mean, err)
	}
	if d2, _, _ := roundsDigest(mk(4, 6, 1), 2); d2 != d1 {
		t.Errorf("digest depends on a request past the prefix")
	}
	if d3, _, _ := roundsDigest(mk(6, 4, 9), 2); d3 == d1 {
		t.Errorf("digest ignores which request took which rounds")
	}
	if _, _, err := roundsDigest(mk(1), 2); !errors.Is(err, errTooFew) {
		t.Errorf("short window: err = %v", err)
	}
}

// short returns a config that runs a workload for about a second. The
// floors are low enough for a slow host (or the race detector), where a
// second may complete a single request.
func short(name string, traced bool) config {
	return config{workload: name, seed: 1, window: time.Second, traced: traced, setups: 1, floor: 1, prefix: 1, replay: 3}
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmoke runs every workload for about a second with and without
// tracing and checks that every metric BENCHMARK.json names is emitted,
// finite and in its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				_, rep, err := run(short(w.name, traced))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s: not emitted", m.Name)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %v", m.Name, got.Value)
					case got.Unit != m.Unit:
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestPoolOutcome pins what each serving workload asks of the pool: after
// the warm-up pass every solve-pooled lookup hits and every mixed-cold
// lookup misses.
func TestPoolOutcome(t *testing.T) {
	for _, c := range []struct {
		workload string
		want     float64
	}{{"solve-pooled", 1}, {"mixed-cold", 0}} {
		_, rep, err := run(short(c.workload, true))
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Metrics["serve.pool_hit_ratio"].Value; got != c.want {
			t.Errorf("%s: pool hit ratio %v, want exactly %v", c.workload, got, c.want)
		}
	}
}

// TestRoundsRepeat: two runs of one seed report the same round digest.
func TestRoundsRepeat(t *testing.T) {
	for _, name := range []string{"mixed-cold", "flow-local"} {
		cfg := short(name, false)
		cfg.window, cfg.prefix = 3*time.Second, 3
		a, _, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.RoundsDigest != b.RoundsDigest || a.RoundsPerRequest != b.RoundsPerRequest {
			t.Errorf("%s: digests %s/%v and %s/%v", name, a.RoundsDigest, a.RoundsPerRequest, b.RoundsDigest, b.RoundsPerRequest)
		}
	}
}

func TestCLIRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "solve-pooled", "--trace", "2"},
		{"--workload", "solve-pooled", "--seconds", "0"},
		{"--workload", "nope", "--seconds", "1"},
	} {
		var out, errOut bytes.Buffer
		if code := cli(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%s: exit %d, stdout %q", strings.Join(args, " "), code, out.String())
		}
	}
}
