package lapcc_test

// End-to-end observability test: the acceptance path of the metrics
// subsystem is "curl /metrics during a fault-injected run and see the
// routing, reliable-delivery, and ledger families move". This test
// does exactly that — same debug server as the CLIs' -debug-addr flag,
// same registry wiring as core.RunOptions{Metrics} — and asserts on the
// scraped Prometheus text rather than on registry internals.

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lapcc/internal/cc"
	"lapcc/internal/core"
	"lapcc/internal/graph"
	"lapcc/internal/metrics"
)

func TestMetricsScrapeDuringFaultedRun(t *testing.T) {
	reg := metrics.NewRegistry()
	prev := cc.MetricsRegistry()
	cc.SetMetrics(reg)
	defer cc.SetMetrics(prev)
	srv, err := metrics.StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The BENCH_faults maxflow workload under a 1% drop plan.
	dg := graph.LayeredDAG(3, 4, 2, 8, 21)
	res, err := core.MaxFlowWith(dg, 0, dg.N()-1, core.RunOptions{
		Faults:  &cc.FaultPlan{Seed: 102, Drop: 0.01},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	body := httpGet(t, "http://"+srv.Addr()+"/metrics")
	if !strings.Contains(body, "# TYPE lapcc_route_call_messages histogram") ||
		!strings.Contains(body, "lapcc_route_call_messages_bucket") {
		t.Error("scrape missing the routing histogram family")
	}
	for _, family := range []string{
		"lapcc_route_rounds_total",
		"lapcc_route_messages_total",
		"lapcc_reliable_waves_total",
		"lapcc_maxflow_runs_total",
		"lapcc_electrical_solves_total",
	} {
		if v := scrapedValue(t, body, family); v <= 0 {
			t.Errorf("%s = %v, want > 0", family, v)
		}
	}

	// The ledger mirror must agree exactly with the run's own report.
	measured := scrapedValue(t, body, `lapcc_ledger_rounds_total{kind="measured"}`)
	charged := scrapedValue(t, body, `lapcc_ledger_rounds_total{kind="charged"}`)
	if int64(measured+charged) != res.Rounds.Total {
		t.Errorf("ledger mirror %v measured + %v charged != reported total %d",
			measured, charged, res.Rounds.Total)
	}

	// The JSON snapshot serves the same data and parses.
	var snap map[string]any
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+srv.Addr()+"/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}

	// pprof is mounted (the index page, not a profile, to keep this fast).
	if !strings.Contains(httpGet(t, "http://"+srv.Addr()+"/debug/pprof/"), "profile") {
		t.Error("/debug/pprof/ index not served")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func scrapedValue(t *testing.T, body, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("scrape has no sample %q", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("sample %q: %v", name, err)
	}
	return v
}
