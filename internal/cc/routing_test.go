package cc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"lapcc/internal/rounds"
)

func TestRouteDeliversAllPackets(t *testing.T) {
	n := 10
	var pkts []Packet
	for s := 0; s < n; s++ {
		for k := 0; k < 3; k++ {
			pkts = append(pkts, Packet{Src: s, Dst: (s + k + 1) % n, Data: []int64{int64(s*10 + k)}})
		}
	}
	led := rounds.New()
	out, res, err := Route(n, pkts, led, "test-route")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for d := 0; d < n; d++ {
		total += len(out[d])
		for _, p := range out[d] {
			if p.Dst != d {
				t.Fatalf("packet for %d delivered to %d", p.Dst, d)
			}
		}
	}
	if total != len(pkts) {
		t.Fatalf("delivered %d of %d packets", total, len(pkts))
	}
	if res.Executed <= 0 {
		t.Fatalf("executed rounds = %d", res.Executed)
	}
	if led.Total() != res.Charged {
		t.Fatalf("ledger %d != charged %d", led.Total(), res.Charged)
	}
}

func TestRouteHotDestinationWithinLenzenBound(t *testing.T) {
	// All n sources send one packet to the same destination: admissible
	// (destination receives exactly n), and the relay spreads them over
	// distinct intermediates so delivery stays within the Lenzen bound.
	n := 32
	var pkts []Packet
	for s := 0; s < n; s++ {
		if s == 0 {
			continue
		}
		pkts = append(pkts, Packet{Src: s, Dst: 0, Data: []int64{int64(s)}})
	}
	out, res, err := Route(n, pkts, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0]) != n-1 {
		t.Fatalf("destination received %d, want %d", len(out[0]), n-1)
	}
	if res.Overflowed {
		t.Fatalf("hot destination overflowed Lenzen bound: executed %d", res.Executed)
	}
}

func TestRouteManyParallelPairMessages(t *testing.T) {
	// One source sends k messages to one destination. Direct delivery would
	// need k rounds; the relay must do much better.
	n := 64
	k := 48
	var pkts []Packet
	for i := 0; i < k; i++ {
		pkts = append(pkts, Packet{Src: 3, Dst: 9, Data: []int64{int64(i)}})
	}
	out, res, err := Route(n, pkts, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(out[9]) != k {
		t.Fatalf("delivered %d of %d", len(out[9]), k)
	}
	if res.Executed >= int64(k) {
		t.Fatalf("relay no better than direct: %d rounds for %d duplicates", res.Executed, k)
	}
}

func TestRouteRejectsOverload(t *testing.T) {
	n := 4
	var pkts []Packet
	for i := 0; i < n+1; i++ {
		pkts = append(pkts, Packet{Src: 0, Dst: 1 + i%(n-1), Data: nil})
	}
	// Source 0 sends n+1 > n packets.
	if _, _, err := Route(n, pkts, nil, ""); !errors.Is(err, ErrRoutingOverload) {
		t.Fatalf("error = %v, want ErrRoutingOverload", err)
	}
}

func TestRouteRejectsBadEndpoints(t *testing.T) {
	if _, _, err := Route(4, []Packet{{Src: 0, Dst: 4}}, nil, ""); !errors.Is(err, ErrBadRecipient) {
		t.Fatalf("error = %v, want ErrBadRecipient", err)
	}
	if _, _, err := Route(4, []Packet{{Src: -1, Dst: 0}}, nil, ""); !errors.Is(err, ErrBadRecipient) {
		t.Fatalf("error = %v, want ErrBadRecipient", err)
	}
}

func TestRouteEmptyCostsNothing(t *testing.T) {
	led := rounds.New()
	_, res, err := Route(5, nil, led, "noop")
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 0 || led.Total() != 0 {
		t.Fatalf("empty route executed %d rounds, ledger %d", res.Executed, led.Total())
	}
}

// Property: every admissible random instance is delivered completely, to the
// right nodes, within the charged bound.
func TestRouteDeliveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		perSrc := rng.Intn(n + 1)
		var pkts []Packet
		dstCount := make([]int, n)
		for s := 0; s < n; s++ {
			for k := 0; k < perSrc; k++ {
				d := rng.Intn(n)
				if dstCount[d] >= n {
					continue
				}
				dstCount[d]++
				pkts = append(pkts, Packet{Src: s, Dst: d, Data: []int64{int64(s), int64(k)}})
			}
		}
		out, res, err := Route(n, pkts, nil, "")
		if err != nil {
			return false
		}
		got := 0
		for d := 0; d < n; d++ {
			got += len(out[d])
			for _, p := range out[d] {
				if p.Dst != d {
					return false
				}
			}
		}
		return got == len(pkts) && res.Charged <= rounds.LenzenRoundBound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastAll(t *testing.T) {
	led := rounds.New()
	vals := []int64{5, 6, 7}
	got, err := BroadcastAll(3, vals, led, "bcast")
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("got %v", got)
		}
	}
	if led.Total() != 1 {
		t.Fatalf("broadcast charged %d rounds, want 1", led.Total())
	}
	if _, err := BroadcastAll(3, []int64{1}, nil, ""); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestRouteCountsLinkMessages(t *testing.T) {
	n := 8
	pkts := []Packet{
		{Src: 0, Dst: 3, Data: []int64{1}},
		{Src: 1, Dst: 4, Data: []int64{2}},
	}
	_, res, err := Route(n, pkts, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	// Each packet: one relay hop + one delivery hop (unless the intermediate
	// happens to be the destination).
	if res.LinkMessages < 2 || res.LinkMessages > 4 {
		t.Fatalf("LinkMessages = %d, want 2..4 for 2 packets", res.LinkMessages)
	}
}
