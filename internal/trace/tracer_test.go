package trace

import (
	"strings"
	"testing"

	"lapcc/internal/rounds"
)

func TestNilTracerIsSafeAndSilent(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.Start("a")
	if sp != nil {
		t.Fatal("nil tracer returned a non-nil span")
	}
	sp = tr.Startf("b-%d", 7)
	if sp != nil {
		t.Fatal("nil tracer Startf returned a non-nil span")
	}
	sp.End() // must not panic
	if sp.Name() != "" || sp.Path() != "" {
		t.Fatal("nil span has a name or path")
	}
	tr.RoundCost("x", rounds.Measured, 3)
	tr.LinkTraffic("x", 1, 2)
	if tr.Attach(rounds.New()) != nil {
		t.Fatal("nil tracer Attach returned non-nil")
	}
	if tr.SpanCount() != 0 {
		t.Fatal("nil tracer has spans")
	}
	if f := tr.AttributedFraction(); f != 1 {
		t.Fatalf("nil tracer attribution %v, want 1", f)
	}
	if got := tr.Summary(); got != "trace: disabled\n" {
		t.Fatalf("nil tracer summary %q", got)
	}
	if tr.Phases() != nil {
		t.Fatal("nil tracer has phases")
	}
}

func TestAttachNilLedgerDoesNotInstallSink(t *testing.T) {
	tr := New()
	if tr.Attach(nil) != tr {
		t.Fatal("Attach(nil) must return the tracer unchanged")
	}
	var nilTr *Tracer
	led := rounds.New()
	nilTr.Attach(led)
	if led.HasSink() {
		t.Fatal("nil tracer must not be installed as a ledger sink")
	}
}

func TestSpanNestingAndPaths(t *testing.T) {
	tr := New()
	a := tr.Start("a")
	b := tr.Start("b")
	c := tr.Startf("c-%d", 1)
	if got := c.Path(); got != "a/b/c-1" {
		t.Fatalf("path %q, want a/b/c-1", got)
	}
	c.End()
	b.End()
	if got := tr.Start("d").Path(); got != "a/d" {
		t.Fatalf("path after closing b: %q, want a/d", got)
	}
	a.End() // forgiving close of d too
	if got := tr.Start("root2").Path(); got != "root2" {
		t.Fatalf("path after closing root: %q, want root2", got)
	}
	if n := tr.SpanCount(); n != 5 {
		t.Fatalf("span count %d, want 5", n)
	}
}

func TestForgivingEndClosesDescendants(t *testing.T) {
	tr := New()
	a := tr.Start("a")
	tr.Start("b")
	tr.Start("c")
	a.End()
	spans, _, _, _ := tr.snapshot()
	for _, s := range spans {
		if s.open {
			t.Fatalf("span %s still open after closing the root", s.path)
		}
	}
	a.End() // double End is a no-op
	if got := tr.Start("x").Path(); got != "x" {
		t.Fatalf("new span path %q, want root x", got)
	}
}

func TestEndOffChainClosesOnlyItself(t *testing.T) {
	tr := New()
	a := tr.Start("a")
	a.End()
	b := tr.Start("b")
	inner := tr.Start("inner")
	a.End() // a is already closed and off the chain: no-op
	spans, _, _, _ := tr.snapshot()
	if !spans[b.id].open || !spans[inner.id].open {
		t.Fatal("ending a closed span disturbed the open chain")
	}
}

func TestCostAttribution(t *testing.T) {
	tr := New()
	led := rounds.New()
	tr.Attach(led)

	led.Add("pre", rounds.Measured, 2, "before any span")
	sp := tr.Start("work")
	led.Add("inside", rounds.Measured, 5, "in span")
	led.Add("cited", rounds.Charged, 7, "in span")
	inner := tr.Start("inner")
	led.Add("deep", rounds.Measured, 1, "in inner")
	inner.End()
	sp.End()
	led.Add("post", rounds.Charged, 3, "after all spans")

	att, unatt := tr.AttributedRounds()
	if att != 13 || unatt != 5 {
		t.Fatalf("attributed %d unattributed %d, want 13 and 5", att, unatt)
	}
	spans, _, _, _ := tr.snapshot()
	if spans[sp.id].measured != 5 || spans[sp.id].charged != 7 {
		t.Fatalf("outer span got measured=%d charged=%d, want 5 and 7",
			spans[sp.id].measured, spans[sp.id].charged)
	}
	if spans[inner.id].measured != 1 {
		t.Fatalf("inner span measured %d, want 1", spans[inner.id].measured)
	}
	if f := tr.AttributedFraction(); f <= 0.7 || f >= 0.73 {
		t.Fatalf("fraction %v, want 13/18", f)
	}
}

func TestTrafficAttribution(t *testing.T) {
	tr := New()
	led := rounds.New()
	tr.Attach(led)
	if !led.HasSink() {
		t.Fatal("Attach did not install the sink")
	}
	sp := tr.Start("route")
	led.AddTraffic("lenzen", 10, 40)
	sp.End()
	spans, _, _, _ := tr.snapshot()
	if spans[sp.id].messages != 10 || spans[sp.id].words != 40 {
		t.Fatalf("span traffic %d msgs %d words, want 10 and 40",
			spans[sp.id].messages, spans[sp.id].words)
	}
}

func TestSummaryAggregatesByPath(t *testing.T) {
	tr := New()
	led := rounds.New()
	tr.Attach(led)
	for i := 0; i < 3; i++ {
		sp := tr.Start("phase")
		led.Add("tag", rounds.Measured, 2, "why")
		sp.End()
	}
	sum := tr.Summary()
	if !strings.Contains(sum, "phase") || !strings.Contains(sum, "attributed to spans: 6/6 rounds (100.0%)") {
		t.Fatalf("summary:\n%s", sum)
	}
	ph := tr.Phases()
	if len(ph) != 1 || ph[0].Calls != 3 || ph[0].MeasuredRounds != 6 {
		t.Fatalf("phases %+v", ph)
	}
}

// TestDisabledTracerAllocatesNothing is the acceptance bar for threading
// tracers through hot paths unconditionally: the nil fast path must not
// allocate.
func TestDisabledTracerAllocatesNothing(t *testing.T) {
	var tr *Tracer
	led := rounds.New()
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Attach(led)
		sp := tr.Startf("span-%d", 17)
		tr.RoundCost("tag", rounds.Measured, 1)
		tr.LinkTraffic("tag", 1, 1)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %v per op, want 0", allocs)
	}
}
