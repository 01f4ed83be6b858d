package cc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
)

// countingTransport is an in-process Transport that copies every payload,
// as the wire backends do, and counts Deliver calls. One call is one
// barrier: the unit chaos kill schedules and the chaos suite's recovery
// counts are indexed by, so a router change that adds or drops a call
// moves them. It is safe for concurrent use.
type countingTransport struct{ calls atomic.Int64 }

func (c *countingTransport) Deliver(_ int, n int, out []Outbox) ([][]Message, DeliveryStats, error) {
	c.calls.Add(1)
	inb := make([][]Message, n)
	var st DeliveryStats
	for _, ob := range out {
		for _, m := range ob.Msgs {
			if m.To < 0 || int(m.To) >= n {
				return nil, DeliveryStats{}, fmt.Errorf("counting transport: recipient %d (n=%d)", m.To, n)
			}
			inb[m.To] = append(inb[m.To], Message{From: int(m.From), Data: slices.Clone(ob.Data(m))})
			st.Messages++
		}
	}
	return inb, st, nil
}

func (c *countingTransport) Close() error { return nil }

// routeCall is one router invocation on a fixed packet set.
type routeCall func() ([][]Packet, RouteResult, error)

// routeOn routes packets on net into a fresh output and returns the
// routing's result.
func routeOn(net Net, n int, packets []Packet, tag string) ([][]Packet, RouteResult, error) {
	out, res, err := net.Route(n, packets, tag, nil)
	return out, res.RouteResult, err
}

// hotSourcePackets is an inadmissible set: node 0 sends k packets, so
// batching splits it into ceil(k/n) batches. Payloads fall from packet to
// packet, so a destination's canonical order across batches is the reverse
// of its batch-by-batch order.
func hotSourcePackets(n, k int) []Packet {
	pkts := make([]Packet, k)
	for i := range pkts {
		pkts[i] = Packet{Src: 0, Dst: 1 + i%(n-1), Data: []int64{int64(k - i)}}
	}
	return pkts
}

// TestRouteBatchedViaBarriers pins how many transport barriers a route
// makes: none for an empty set, and otherwise one per n² packets, however
// many admissible batches the set splits into — a delivery carries batches
// until the next would take it past n² messages. Output, RouteResult and
// ledger match the in-process route in every case.
func TestRouteBatchedViaBarriers(t *testing.T) {
	const n = 16
	cases := []struct {
		name    string
		packets []Packet
		calls   int64
	}{
		{"empty", nil, 0},
		{"one batch", randomPackets(rand.New(rand.NewSource(1)), n, n), 1},
		{"one full batch", hotSourcePackets(n, n), 1},
		{"three batches", hotSourcePackets(n, 3*n), 1},
		{"four batches", hotSourcePackets(n, 3*n+1), 1},
		{"n*n packets in n batches", hotSourcePackets(n, n*n), 1},
		{"n*n+1 packets in n+1 batches", hotSourcePackets(n, n*n+1), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := &countingTransport{}
			viaLed, plainLed := rounds.New(), rounds.New()
			via, viaRes, err := routeOn(Net{Transport: tr, Ledger: viaLed}, n, tc.packets, "b")
			if err != nil {
				t.Fatal(err)
			}
			if got := tr.calls.Load(); got != tc.calls {
				t.Fatalf("%d Deliver calls, want %d", got, tc.calls)
			}
			plain, plainRes, err := routeOn(Net{Ledger: plainLed}, n, tc.packets, "b")
			if err != nil {
				t.Fatal(err)
			}
			if viaRes != plainRes {
				t.Fatalf("RouteResult %+v over the transport, %+v in process", viaRes, plainRes)
			}
			if viaLed.Total() != plainLed.Total() || viaLed.Report() != plainLed.Report() {
				t.Fatalf("ledgers differ:\n%s\nvs\n%s", viaLed.Report(), plainLed.Report())
			}
			if !slices.Equal(flatten(via), flatten(plain)) {
				t.Fatal("delivered packets differ between transport and in-process routing")
			}
			if len(via) != n || len(plain) != n {
				t.Fatalf("outputs have %d and %d destinations, want %d", len(via), len(plain), n)
			}
		})
	}
}

// TestRouteOutputsCapacityCapped: every non-empty out[d] is its own
// capacity-capped window, so a caller appending to one destination's
// packets reallocates instead of overwriting the next destination's. The
// Route cases lay their output out fresh, the Batched cases in a
// RouteBuffer; Via routes over a transport, and many needs several
// batches.
func TestRouteOutputsCapacityCapped(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(5))
	admissible := randomPackets(rng, n, n)
	overloaded := append(hotSourcePackets(n, 3*n), randomPackets(rng, n, 2*n)...)
	inBuffer := func(net Net, packets []Packet) routeCall {
		var buf RouteBuffer
		return func() ([][]Packet, RouteResult, error) {
			out, res, err := net.Route(n, packets, "", &buf)
			return out, res.RouteResult, err
		}
	}
	via := Net{Transport: &countingTransport{}}
	routers := map[string]routeCall{
		"Route":                func() ([][]Packet, RouteResult, error) { return routeOn(Net{}, n, admissible, "") },
		"RouteVia":             func() ([][]Packet, RouteResult, error) { return routeOn(via, n, admissible, "") },
		"RouteBatched/one":     inBuffer(Net{}, admissible),
		"RouteBatched/many":    inBuffer(Net{}, overloaded),
		"RouteBatchedVia/many": inBuffer(via, overloaded),
	}
	for name, route := range routers {
		t.Run(name, func(t *testing.T) {
			out, _, err := route()
			if err != nil {
				t.Fatal(err)
			}
			before := flatten(out)
			for d, pk := range out {
				if len(pk) > 0 && cap(pk) != len(pk) {
					t.Fatalf("out[%d] has len %d, cap %d", d, len(pk), cap(pk))
				}
			}
			for d := range out {
				if len(out[d]) > 0 {
					out[d] = append(out[d], Packet{Src: -1, Dst: d})
					out[d] = out[d][:len(out[d])-1]
				}
			}
			if !slices.Equal(flatten(out), before) {
				t.Fatal("appending to one destination changed another destination's packets")
			}
		})
	}
}

// TestRouteAllocations pins the router's steady-state allocations: a warm
// Route into a fresh output allocates that output only (the arena and the
// per-destination slice headers), however many flushes the set needs, and
// a warm Route into a RouteBuffer allocates nothing. Recording into a
// metrics registry installed with SetMetrics adds no allocation to either.
func TestRouteAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	defer SetMetrics(nil)
	for _, reg := range []*metrics.Registry{nil, metrics.NewRegistry()} {
		SetMetrics(reg)
		label := fmt.Sprintf("metrics=%t", reg != nil)
		for _, n := range []int{64, 256} {
			pkts := make([]Packet, 0, 32*n)
			for s := 0; s < n; s++ {
				for k := 0; k < 32; k++ {
					pkts = append(pkts, Packet{Src: s, Dst: (s + 1 + k) % n, Data: []int64{1, 2}})
				}
			}
			if a := routeAllocs(t, func() ([][]Packet, RouteResult, error) { return routeOn(Net{}, n, pkts, "") }); a != 2 {
				t.Fatalf("%s n=%d: Route allocates %v times, want 2", label, n, a)
			}
		}
		const n = 128
		var buf RouteBuffer
		for _, k := range []int{n, 4 * n} {
			pkts := hotSourcePackets(n, k)
			flushes := (k + n - 1) / n
			if a := routeAllocs(t, func() ([][]Packet, RouteResult, error) { return routeOn(Net{}, n, pkts, "") }); a != 2 {
				t.Fatalf("%s: %d packets in %d flushes: Route allocates %v times, want 2", label, k, flushes, a)
			}
			if a := routeAllocs(t, func() ([][]Packet, RouteResult, error) {
				out, res, err := Net{}.Route(n, pkts, "", &buf)
				return out, res.RouteResult, err
			}); a != 0 {
				t.Fatalf("%s: %d packets in %d flushes: a warm RouteBuffer allocates %v times, want 0", label, k, flushes, a)
			}
		}
		if reg != nil && counterValue(reg, "lapcc_route_rounds_total") == 0 {
			t.Fatalf("%s: the installed registry recorded no routing rounds", label)
		}
	}
}

func routeAllocs(t *testing.T, route routeCall) float64 {
	t.Helper()
	run := func() {
		if _, _, err := route(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch pools
	return testing.AllocsPerRun(20, run)
}

// routeOutcome is one router call's full observable result.
type routeOutcome struct {
	out [][]Packet
	res RouteResult
}

// TestRouteConcurrent runs the router from several goroutines at once, as
// the daemon does when concurrent requests share the scratch pools: every
// result must deep-equal the same call made sequentially.
func TestRouteConcurrent(t *testing.T) {
	const (
		workers = 8
		reps    = 10
		n       = 24
	)
	tr := &countingTransport{}
	type job struct{ admissible, overloaded []Packet }
	jobs := make([]job, workers)
	for w := range jobs {
		rng := rand.New(rand.NewSource(int64(100 + w)))
		jobs[w] = job{
			admissible: randomPackets(rng, n, n),
			overloaded: append(hotSourcePackets(n, 2*n+w), randomPackets(rng, n, 3*n)...),
		}
	}
	runAll := func(j job) ([]routeOutcome, error) {
		var outs []routeOutcome
		for _, call := range []routeCall{
			func() ([][]Packet, RouteResult, error) { return routeOn(Net{}, n, j.admissible, "") },
			func() ([][]Packet, RouteResult, error) { return routeOn(Net{}, n, j.overloaded, "") },
			func() ([][]Packet, RouteResult, error) { return routeOn(Net{Transport: tr}, n, j.admissible, "") },
		} {
			out, res, err := call()
			if err != nil {
				return nil, err
			}
			outs = append(outs, routeOutcome{out, res})
		}
		return outs, nil
	}
	want := make([][]routeOutcome, workers)
	for w, j := range jobs {
		var err error
		if want[w], err = runAll(j); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := range jobs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				got, err := runAll(jobs[w])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[w]) {
					t.Errorf("worker %d rep %d: concurrent result differs from its sequential run", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// routeRecord is everything a routing call reports besides its packets:
// the result, the ledger it charged, and the route metrics it recorded.
type routeRecord struct {
	res                  RouteResult
	err                  string
	ledger               string
	rounds, msgs, words  int64
	callCount, callTotal int64
}

// recordRoute runs one routing call against a fresh ledger and a fresh
// process-wide metrics registry and returns what it reported.
func recordRoute(t *testing.T, route func(*rounds.Ledger) ([][]Packet, RouteResult, error)) ([][]Packet, routeRecord) {
	t.Helper()
	reg := metrics.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)
	led := rounds.New()
	out, res, err := route(led)
	rec := routeRecord{
		res:    res,
		ledger: led.Report(),
		rounds: counterValue(reg, "lapcc_route_rounds_total"),
		msgs:   counterValue(reg, "lapcc_route_messages_total"),
		words:  counterValue(reg, "lapcc_route_words_total"),
	}
	if err != nil {
		rec.err = err.Error()
	}
	h := reg.Histogram("lapcc_route_call_messages", "")
	rec.callCount, rec.callTotal = h.Count(), h.Sum()
	return out, rec
}

// TestRouteViaChargesLikeRoute: over a transport the routing core only
// charges, and the charge is the in-process route's own — RouteResult,
// ledger, route metrics and error — on a one-flush set, a 3n+1 hot source
// that needs four flushes, an empty set and a set with a bad endpoint. The
// delivered packets are the in-process ones.
func TestRouteViaChargesLikeRoute(t *testing.T) {
	const n = 16
	bad := randomPackets(rand.New(rand.NewSource(3)), n, n)
	bad[5].Dst = n
	cases := []struct {
		name    string
		packets []Packet
		wantErr bool
	}{
		{"one flush batched", randomPackets(rand.New(rand.NewSource(1)), n, n), false},
		{"hot source 3n+1", hotSourcePackets(n, 3*n+1), false},
		{"empty batched", nil, false},
		{"bad endpoint batched", bad, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := &countingTransport{}
			via, viaRec := recordRoute(t, func(led *rounds.Ledger) ([][]Packet, RouteResult, error) {
				return routeOn(Net{Transport: tr, Ledger: led}, n, tc.packets, "c")
			})
			plain, plainRec := recordRoute(t, func(led *rounds.Ledger) ([][]Packet, RouteResult, error) {
				return routeOn(Net{Ledger: led}, n, tc.packets, "c")
			})
			if viaRec != plainRec {
				t.Fatalf("over the transport %+v, in process %+v", viaRec, plainRec)
			}
			if (viaRec.err != "") != tc.wantErr {
				t.Fatalf("error %q, want an error: %v", viaRec.err, tc.wantErr)
			}
			if !slices.Equal(flatten(via), flatten(plain)) {
				t.Fatal("delivered packets differ between transport and in-process routing")
			}
		})
	}
}

// TestRouteBufferReuse drives one RouteBuffer through calls whose clique
// size and packet count grow and shrink, with and without a transport.
// Every call returns exactly what a route into a fresh output returns —
// packets, RouteResult and ledger — and a destination that receives
// nothing reads nil rather than a stale window of an earlier call.
func TestRouteBufferReuse(t *testing.T) {
	type step struct{ n, k int }
	steps := []step{{8, 8}, {32, 200}, {4, 1}, {64, 64}, {16, 0}, {64, 700}, {8, 30}, {24, 24}, {2, 5}}
	for _, tr := range []Transport{nil, &countingTransport{}} {
		var buf RouteBuffer
		for i, st := range steps {
			rng := rand.New(rand.NewSource(int64(40 + i)))
			pkts := randomPackets(rng, st.n, st.k)
			if st.k > st.n {
				pkts = append(pkts, hotSourcePackets(st.n, st.k)...)
			}
			bufLed, freshLed := rounds.New(), rounds.New()
			got, gotRes, err := Net{Transport: tr, Ledger: bufLed}.Route(st.n, pkts, "r", &buf)
			if err != nil {
				t.Fatal(err)
			}
			want, wantRes, err := Net{Transport: tr, Ledger: freshLed}.Route(st.n, pkts, "r", nil)
			if err != nil {
				t.Fatal(err)
			}
			if gotRes != wantRes || bufLed.Report() != freshLed.Report() {
				t.Fatalf("step %d: RouteResult %+v / %+v, ledgers\n%s\nvs\n%s", i, gotRes, wantRes, bufLed.Report(), freshLed.Report())
			}
			if len(got) != st.n {
				t.Fatalf("step %d: %d destinations, want %d", i, len(got), st.n)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (n=%d, %d packets, transport %v): the buffer's delivery differs from a fresh one", i, st.n, len(pkts), tr != nil)
			}
			for d := range got {
				if len(want[d]) == 0 && got[d] != nil {
					t.Fatalf("step %d: empty destination %d reads %v, want nil", i, d, got[d])
				}
			}
		}
	}
}
