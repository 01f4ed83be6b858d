package cc

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"lapcc/internal/rounds"
)

func TestRouteBatchedSmallSetMatchesRoute(t *testing.T) {
	n := 8
	pkts := []Packet{
		{Src: 0, Dst: 3, Data: []int64{1}},
		{Src: 1, Dst: 3, Data: []int64{2}},
		{Src: 2, Dst: 5, Data: []int64{3}},
	}
	out, res, err := routeOn(Net{}, n, pkts, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(out[3]) != 2 || len(out[5]) != 1 {
		t.Fatalf("delivery counts wrong: %d, %d", len(out[3]), len(out[5]))
	}
	if res.Executed == 0 {
		t.Fatal("no rounds executed")
	}
}

func TestRouteBatchedOverloadedNodeSplits(t *testing.T) {
	// A single node sending 3n messages must be split into >= 3 batches,
	// costing proportionally more rounds — the model's honest price.
	n := 6
	var pkts []Packet
	for k := 0; k < 3*n; k++ {
		pkts = append(pkts, Packet{Src: 0, Dst: 1 + k%(n-1), Data: []int64{int64(k)}})
	}
	led := rounds.New()
	out, res, err := routeOn(Net{Ledger: led}, n, pkts, "batched")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for d := range out {
		total += len(out[d])
	}
	if total != 3*n {
		t.Fatalf("delivered %d of %d", total, 3*n)
	}
	if res.Charged < 3 {
		t.Fatalf("3 batches charged only %d rounds", res.Charged)
	}
}

func TestRouteBatchedRejectsBadEndpoint(t *testing.T) {
	_, _, err := routeOn(Net{}, 4, []Packet{{Src: 0, Dst: 9}}, "")
	if !errors.Is(err, ErrBadRecipient) {
		t.Fatalf("error = %v, want ErrBadRecipient", err)
	}
}

func TestRouteBatchedEmpty(t *testing.T) {
	out, res, err := routeOn(Net{}, 4, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 0 {
		t.Fatalf("executed %d rounds for empty set", res.Executed)
	}
	for d := range out {
		if len(out[d]) != 0 {
			t.Fatal("phantom delivery")
		}
	}
}

// Property: arbitrary (even inadmissible-in-one-shot) packet sets are fully
// delivered by batching.
func TestRouteBatchedDeliveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		count := rng.Intn(5 * n)
		var pkts []Packet
		for k := 0; k < count; k++ {
			s := rng.Intn(n)
			d := rng.Intn(n)
			pkts = append(pkts, Packet{Src: s, Dst: d, Data: []int64{int64(k)}})
		}
		out, _, err := routeOn(Net{}, n, pkts, "")
		if err != nil {
			return false
		}
		got := 0
		for d := range out {
			got += len(out[d])
			for _, p := range out[d] {
				if p.Dst != d {
					return false
				}
			}
		}
		return got == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRouteBatchedOutOfRangeEndpoints covers the batching bad-endpoint
// path directly for every flavor of out-of-range Src/Dst, including the
// negative indices that would panic the counting arrays if the delegated
// error check ever fell through.
func TestRouteBatchedOutOfRangeEndpoints(t *testing.T) {
	n := 4
	cases := []Packet{
		{Src: -1, Dst: 0},
		{Src: 0, Dst: -2},
		{Src: n, Dst: 0},
		{Src: 0, Dst: n},
		{Src: -5, Dst: n + 3},
	}
	for _, bad := range cases {
		t.Run(fmt.Sprintf("src=%d,dst=%d", bad.Src, bad.Dst), func(t *testing.T) {
			// The bad packet is surrounded by valid traffic so the batching
			// bookkeeping is active when it is hit.
			pkts := []Packet{
				{Src: 0, Dst: 1, Data: []int64{1}},
				bad,
				{Src: 2, Dst: 3, Data: []int64{2}},
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Route panicked: %v", r)
				}
			}()
			_, _, err := routeOn(Net{}, n, pkts, "")
			if !errors.Is(err, ErrBadRecipient) {
				t.Fatalf("error = %v, want ErrBadRecipient", err)
			}
		})
	}
}
