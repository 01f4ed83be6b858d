package cc

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lapcc/internal/rounds"
)

// flatten renders a delivery result as a canonical list of strings for
// comparison (the per-destination order is already canonical).
func flatten(out [][]Packet) []string {
	var s []string
	for d, inbox := range out {
		for _, p := range inbox {
			s = append(s, fmt.Sprintf("d%d s%d %v", d, p.Src, p.Data))
		}
	}
	return s
}

func randomPackets(rng *rand.Rand, n, m int) []Packet {
	pkts := make([]Packet, m)
	for i := range pkts {
		width := rng.Intn(4) // includes zero-length payloads
		data := make([]int64, width)
		for j := range data {
			data[j] = rng.Int63n(1 << 30)
		}
		pkts[i] = Packet{Src: rng.Intn(n), Dst: rng.Intn(n), Data: data}
	}
	return pkts
}

// TestReliableRouteBitIdenticalToClean is the routing-layer differential:
// across seeds and fault rates, the reliable layer's delivered set is
// bit-identical to a clean Route of the same packets, at a strictly larger
// round cost.
func TestReliableRouteBitIdenticalToClean(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		pkts := randomPackets(rng, n, 1+rng.Intn(3*n))
		cleanLed := rounds.New()
		clean, cleanRes, err := Route(n, pkts, cleanLed, "x")
		if err != nil {
			t.Fatalf("trial %d clean: %v", trial, err)
		}
		plan := &FaultPlan{
			Seed:      uint64(trial + 1),
			Drop:      0.05,
			Corrupt:   0.03,
			Duplicate: 0.03,
			Delay:     0.03,
		}
		faultLed := rounds.New()
		got, res, err := ReliableRoute(n, pkts, faultLed, "x", plan)
		if err != nil {
			t.Fatalf("trial %d reliable: %v", trial, err)
		}
		want, have := flatten(clean), flatten(got)
		if len(want) != len(have) {
			t.Fatalf("trial %d: delivered %d packets, want %d", trial, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("trial %d: delivery diverges at %d: %q vs %q", trial, i, have[i], want[i])
			}
		}
		if res.Faults.Total() > 0 && faultLed.Total() <= cleanLed.Total() {
			t.Fatalf("trial %d: faulty run cost %d rounds, clean cost %d — retries must cost extra",
				trial, faultLed.Total(), cleanLed.Total())
		}
		// Lost or mangled data (anything but a pure duplicate) forces at
		// least one retransmission wave.
		if res.Faults.Dropped+res.Faults.Corrupted+res.Faults.Delayed > 0 && res.Attempts < 2 {
			t.Fatalf("trial %d: data faults injected but only %d attempt", trial, res.Attempts)
		}
		_ = cleanRes
	}
}

// TestReliableRouteBatchedBitIdentical mirrors the differential for the
// batched variant, with overloaded sources forcing multiple batches.
func TestReliableRouteBatchedBitIdentical(t *testing.T) {
	const n = 6
	var pkts []Packet
	for i := 0; i < 3*n*n; i++ { // node 0 sources 3n^2 packets: needs batching
		pkts = append(pkts, Packet{Src: 0, Dst: i % n, Data: []int64{int64(i)}})
	}
	clean, _, err := RouteBatched(n, pkts, nil, "y")
	if err != nil {
		t.Fatalf("clean: %v", err)
	}
	plan := &FaultPlan{Seed: 5, Drop: 0.05, Duplicate: 0.05}
	got, res, err := ReliableRouteBatched(n, pkts, nil, "y", plan)
	if err != nil {
		t.Fatalf("reliable: %v", err)
	}
	want, have := flatten(clean), flatten(got)
	if len(want) != len(have) {
		t.Fatalf("delivered %d, want %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("diverges at %d: %q vs %q", i, have[i], want[i])
		}
	}
	if res.Faults.Total() == 0 {
		t.Fatal("plan injected nothing at 5% rates over thousands of packets")
	}
}

// TestReliableRouteNilPlanDelegates: nil and zero-rate plans must be free.
func TestReliableRouteNilPlanDelegates(t *testing.T) {
	const n = 8
	pkts := []Packet{{Src: 1, Dst: 2, Data: []int64{7}}, {Src: 3, Dst: 3}}
	cleanLed := rounds.New()
	clean, cleanRes, err := Route(n, pkts, cleanLed, "z")
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*FaultPlan{nil, {Seed: 1}} {
		led := rounds.New()
		got, res, err := ReliableRoute(n, pkts, led, "z", plan)
		if err != nil {
			t.Fatalf("plan %v: %v", plan, err)
		}
		if res.Attempts != 1 || res.Executed != cleanRes.Executed {
			t.Fatalf("plan %v: result %+v, want clean %+v", plan, res.RouteResult, cleanRes)
		}
		if led.Total() != cleanLed.Total() {
			t.Fatalf("plan %v: charged %d, clean charges %d", plan, led.Total(), cleanLed.Total())
		}
		w, h := flatten(clean), flatten(got)
		if len(w) != len(h) {
			t.Fatalf("plan %v: delivery differs", plan)
		}
	}
}

// TestReliableRouteExhaustsRetries: Drop=1 can never deliver; the protocol
// must give up with the typed error instead of looping.
func TestReliableRouteExhaustsRetries(t *testing.T) {
	const n = 4
	pkts := []Packet{{Src: 0, Dst: 1, Data: []int64{1}}}
	plan := &FaultPlan{Drop: 1, MaxRetries: 3}
	_, res, err := ReliableRoute(n, pkts, nil, "dead", plan)
	if !errors.Is(err, ErrDeliveryFailed) {
		t.Fatalf("want ErrDeliveryFailed, got %v", err)
	}
	if res.Attempts != 4 { // initial + 3 retries
		t.Fatalf("attempts %d, want 4", res.Attempts)
	}
	if res.BackoffRounds != 1+2+4 {
		t.Fatalf("backoff rounds %d, want 7 (exponential)", res.BackoffRounds)
	}
}

// TestReliableRouteChargesRetryTags: the overhead is split into the derived
// ledger tags so reports can separate protocol cost from useful work.
func TestReliableRouteChargesRetryTags(t *testing.T) {
	const n = 8
	rng := rand.New(rand.NewSource(2))
	pkts := randomPackets(rng, n, 40)
	plan := &FaultPlan{Seed: 11, Drop: 0.3}
	led := rounds.New()
	_, res, err := ReliableRoute(n, pkts, led, "work", plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmitted == 0 {
		t.Fatal("30% drop over 40 packets retransmitted nothing")
	}
	tags := map[string]int64{}
	for _, e := range led.Entries() {
		tags[e.Tag] = e.Rounds
	}
	for _, tag := range []string{"work", "work-ack", "work-retry", "work-backoff"} {
		if tags[tag] == 0 {
			t.Fatalf("tag %q missing from ledger: %v", tag, tags)
		}
	}
}

// TestReliableBroadcastAll: the broadcast variant returns the same values a
// clean broadcast would, with measured retransmission overhead.
func TestReliableBroadcastAll(t *testing.T) {
	const n = 10
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(100 + i)
	}
	clean, err := BroadcastAll(n, values, nil, "bc")
	if err != nil {
		t.Fatal(err)
	}
	plan := &FaultPlan{Seed: 21, Drop: 0.1, Corrupt: 0.05}
	led := rounds.New()
	got, res, err := ReliableBroadcastAll(n, values, led, "bc", plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if got[i] != clean[i] {
			t.Fatalf("value %d: %d != clean %d", i, got[i], clean[i])
		}
	}
	if res.Faults.Total() == 0 {
		t.Fatal("no faults injected on 90 pairs at 15% rates")
	}
	if led.Total() < 2 {
		t.Fatalf("faulty broadcast charged %d rounds; retransmission must cost extra", led.Total())
	}
}

// TestReliableSelfSendDelivers: Src == Dst packets stay local in Route;
// the reliable layer must handle them identically.
func TestReliableSelfSendDelivers(t *testing.T) {
	const n = 4
	pkts := []Packet{{Src: 2, Dst: 2, Data: []int64{9}}, {Src: 2, Dst: 2}}
	plan := &FaultPlan{Seed: 8, Drop: 0.5}
	got, _, err := ReliableRoute(n, pkts, nil, "self", plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[2]) != 2 {
		t.Fatalf("node 2 got %d packets, want its 2 self-sends", len(got[2]))
	}
}

// TestReliableCodecRoundTrip pins the frame format directly (the fuzz
// harness in fuzz_test.go explores it adversarially).
func TestReliableCodecRoundTrip(t *testing.T) {
	cases := []Packet{
		{Src: 0, Dst: 1, Data: []int64{1, 2, 3}},
		{Src: 3, Dst: 3, Data: nil}, // zero-length self-send
		{Src: 7, Dst: 0, Data: []int64{-1, 0, 1 << 62}},
	}
	for i, p := range cases {
		frame := encodeReliable(p, i)
		seq, payload, ok := decodeReliable(Packet{Src: p.Src, Dst: p.Dst, Data: frame})
		if !ok || seq != int64(i) || len(payload) != len(p.Data) {
			t.Fatalf("case %d: decode (%d, %v, %v)", i, seq, payload, ok)
		}
		for j := range payload {
			if payload[j] != p.Data[j] {
				t.Fatalf("case %d: payload word %d corrupted", i, j)
			}
		}
		// Any single bit flip must be detected.
		for w := range frame {
			frame[w] ^= 1 << uint(w%64)
			if _, _, ok := decodeReliable(Packet{Src: p.Src, Dst: p.Dst, Data: frame}); ok {
				t.Fatalf("case %d: bit flip in word %d undetected", i, w)
			}
			frame[w] ^= 1 << uint(w%64)
		}
		// A frame rerouted to the wrong destination fails its checksum too.
		if _, _, ok := decodeReliable(Packet{Src: p.Src, Dst: p.Dst + 1, Data: frame}); ok {
			t.Fatalf("case %d: wrong-destination frame accepted", i)
		}
	}
}
