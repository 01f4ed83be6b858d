package cc

import (
	"testing"

	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
)

// counterValue reads a counter's current value from a snapshot-independent
// lookup (the registry returns the same instrument it recorded into).
func counterValue(reg *metrics.Registry, name string, labels ...string) int64 {
	return reg.Counter(name, "", labels...).Value()
}

func TestReliableRouteRecordsProtocolCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)
	const n = 8
	var packets []Packet
	for s := 0; s < n; s++ {
		packets = append(packets, Packet{Src: s, Dst: (s + 1) % n, Data: []int64{int64(s)}})
	}
	plan := &FaultPlan{Seed: 5, Drop: 0.3}
	_, res, err := ReliableRoute(n, packets, rounds.New(), "t", plan)
	if err != nil {
		t.Fatal(err)
	}
	if v := counterValue(reg, "lapcc_reliable_waves_total"); v != int64(res.Attempts) {
		t.Fatalf("waves_total = %d, want %d", v, res.Attempts)
	}
	if v := counterValue(reg, "lapcc_reliable_retransmitted_packets_total"); v != res.Retransmitted {
		t.Fatalf("retransmitted_packets_total = %d, want %d", v, res.Retransmitted)
	}
	if v := counterValue(reg, "lapcc_reliable_ack_rounds_total"); v != res.AckRounds {
		t.Fatalf("ack_rounds_total = %d, want %d", v, res.AckRounds)
	}
	if res.Attempts < 2 {
		t.Fatal("drop plan forced no retransmission; test needs a higher rate")
	}
	// A clean plan must record nothing (the fast path delegates).
	before := counterValue(reg, "lapcc_reliable_waves_total")
	if _, _, err := ReliableRoute(n, packets, rounds.New(), "t2", nil); err != nil {
		t.Fatal(err)
	}
	if counterValue(reg, "lapcc_reliable_waves_total") != before {
		t.Fatal("clean-path ReliableRoute recorded protocol counters")
	}
}
