package trace_test

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"lapcc/internal/cc"
	"lapcc/internal/experiments"
	"lapcc/internal/graph"
	"lapcc/internal/lapsolver"
	"lapcc/internal/rounds"
	"lapcc/internal/trace"
)

// tracedSolve runs one seeded Laplacian solve with a fresh tracer and
// returns its JSONL stream.
func tracedSolve(t *testing.T) []byte {
	t.Helper()
	g, err := graph.RandomRegular(96, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	led := rounds.New()
	s, err := lapsolver.NewSolver(g, lapsolver.Options{Ledger: led, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, g.N())
	b[0], b[g.N()-1] = 1, -1
	if _, _, err := s.Solve(b, 1e-8); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJSONLDeterminism is the golden determinism bar: two runs of the same
// seeded workload must produce byte-identical JSONL streams.
func TestJSONLDeterminism(t *testing.T) {
	first := tracedSolve(t)
	second := tracedSolve(t)
	if len(first) == 0 {
		t.Fatal("traced solve produced an empty event stream")
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("JSONL streams differ across identical runs:\n--- first (%d bytes)\n%s\n--- second (%d bytes)\n%s",
			len(first), head(first), len(second), head(second))
	}
	if err := trace.ValidateJSONL(bytes.NewReader(first)); err != nil {
		t.Fatalf("stream fails schema validation: %v", err)
	}
}

func head(b []byte) []byte {
	if len(b) > 2048 {
		return b[:2048]
	}
	return b
}

// TestConcurrentRecordingRace stresses span recording while routing calls
// report rounds and link traffic into the tracer and other goroutines hammer
// the ledger sink; run under -race this proves the tracer's locking.
func TestConcurrentRecordingRace(t *testing.T) {
	tr := trace.New()
	led := rounds.New()
	tr.Attach(led)

	const n = 32

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Driving goroutine behavior: nested spans opening and closing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sp := tr.Startf("outer-%d", i)
			inner := tr.Start("inner")
			inner.End()
			sp.End()
		}
	}()
	// Cost sources from other goroutines (the ledger is shared).
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				led.Add("stress", rounds.Measured, 1, "race stress")
				led.AddTraffic("stress", 2, 4)
			}
		}(w)
	}
	// Twenty all-to-all routes; each charges its rounds and reports its
	// link traffic through the shared ledger.
	pkts := make([]cc.Packet, 0, n*(n-1))
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if dst != src {
				pkts = append(pkts, cc.Packet{Src: src, Dst: dst, Data: []int64{int64(src)}})
			}
		}
	}
	net := cc.Net{Ledger: led}
	for r := 0; r < 20; r++ {
		if _, _, err := net.Route(n, pkts, "gossip", nil); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateJSONL(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("stream recorded under concurrency fails validation: %v", err)
	}
}

// TestTraceSmoke runs one traced solve per algorithm layer (the same
// workloads as experiment E11 and `make trace-smoke`), validates the JSONL
// schema, and enforces the attribution bar: at least 95% of all recorded
// rounds must land in a named span.
func TestTraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack smoke is slow")
	}
	tr := trace.New()
	if err := experiments.TraceProfile(io.Discard, true, tr); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateJSONL(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("smoke stream fails schema validation: %v", err)
	}
	att, unatt := tr.AttributedRounds()
	if att+unatt == 0 {
		t.Fatal("smoke run recorded no rounds")
	}
	if f := tr.AttributedFraction(); f < 0.95 {
		t.Fatalf("attribution %.3f (attributed %d, unattributed %d), want >= 0.95", f, att, unatt)
	}
	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if chrome.Len() == 0 {
		t.Fatal("chrome export empty")
	}
}
