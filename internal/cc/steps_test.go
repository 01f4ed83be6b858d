package cc_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"lapcc/internal/cc"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/transport"
)

// countedMem is the wire-codec backend with its Deliver calls counted.
type countedMem struct {
	*transport.Mem
	calls int64
}

func (c *countedMem) Deliver(round, n int, out []cc.Outbox) ([][]cc.Message, cc.DeliveryStats, error) {
	c.calls++
	return c.Mem.Deliver(round, n, out)
}

// costLog records every round charge and traffic report a ledger sees, in
// the order it sees them.
type costLog struct {
	mu      sync.Mutex
	entries []string
}

func (l *costLog) RoundCost(tag string, kind rounds.Kind, r int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, fmt.Sprintf("cost %s %v %d", tag, kind, r))
}

func (l *costLog) LinkTraffic(tag string, messages, words int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, fmt.Sprintf("traffic %s %d %d", tag, messages, words))
}

// stepsRecord is everything a sequence of routing steps reports: each
// step's output and result, the first error, every ledger entry in order,
// the ledger report, the four route metrics and the reliable layer's wave
// and retransmission counters.
type stepsRecord struct {
	outs                 [][][]cc.Packet
	results              []cc.RouteResult
	err                  string
	charges              []string
	report               string
	rounds, msgs, words  int64
	callCount, callTotal int64
	waves, resent        int64
}

// recordSteps runs route against a fresh ledger, charge log and metrics
// registry and returns what it reported.
func recordSteps(t *testing.T, route func(*rounds.Ledger) ([][][]cc.Packet, []cc.RouteResult, error)) stepsRecord {
	t.Helper()
	reg := metrics.NewRegistry()
	cc.SetMetrics(reg)
	defer cc.SetMetrics(nil)
	led, log := rounds.New(), &costLog{}
	led.SetSink(log)
	outs, results, err := route(led)
	rec := stepsRecord{
		outs:    outs,
		results: results,
		charges: log.entries,
		report:  led.Report(),
		rounds:  reg.Counter("lapcc_route_rounds_total", "").Value(),
		msgs:    reg.Counter("lapcc_route_messages_total", "").Value(),
		words:   reg.Counter("lapcc_route_words_total", "").Value(),
		waves:   reg.Counter("lapcc_reliable_waves_total", "").Value(),
		resent:  reg.Counter("lapcc_reliable_retransmitted_packets_total", "").Value(),
	}
	if err != nil {
		rec.err = err.Error()
	}
	h := reg.Histogram("lapcc_route_call_messages", "")
	rec.callCount, rec.callTotal = h.Count(), h.Sum()
	return rec
}

// stepPackets is a random set of k packets on an n-clique, every third one
// with an empty payload.
func stepPackets(seed int64, n, k int) []cc.Packet {
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]cc.Packet, k)
	for i := range pkts {
		var data []int64
		if i%3 != 0 {
			data = []int64{rng.Int63(), int64(i)}
		}
		pkts[i] = cc.Packet{Src: rng.Intn(n), Dst: rng.Intn(n), Data: data}
	}
	return pkts
}

// wideStep is k packets on an n-clique, each carrying width payload words.
func wideStep(seed int64, n, k, width int) []cc.Packet {
	pkts := stepPackets(seed, n, k)
	for i := range pkts {
		data := make([]int64, width)
		for w := range data {
			data[w] = seed<<40 | int64(i)<<20 | int64(w)
		}
		pkts[i].Data = data
	}
	return pkts
}

// hotSource is k packets all sent by node 0: ceil(k/n) admissible batches.
// Payloads fall from packet to packet, so a destination's canonical order
// across batches is the reverse of its batch-by-batch order.
func hotSource(n, k int) []cc.Packet {
	pkts := make([]cc.Packet, k)
	for i := range pkts {
		pkts[i] = cc.Packet{Src: 0, Dst: 1 + i%(n-1), Data: []int64{int64(k - i)}}
	}
	return pkts
}

// TestRouteStepsViaMatchesOneCallAtATime: a multi-step call reports exactly
// what the same steps routed one Route call at a time report —
// every step's output and RouteResult, the error, each ledger charge in
// order, the ledger report and the four route metrics — in process, over
// the wire codec and over the counting transport, while the steps share
// their delivery barriers: one per n² packets or per megabyte of wire size
// (a lone step past it still ships alone), none for empty steps, none when
// a step fails its check, whose error names the step. The multi-step calls
// lay their steps out in RouteBuffers that every case reuses, the
// one-call-at-a-time runs in fresh outputs.
func TestRouteStepsViaMatchesOneCallAtATime(t *testing.T) {
	const n = 16
	var bufs [4]cc.RouteBuffer
	bad := stepPackets(9, n, 2*n)
	bad[n+3].Dst = n
	cases := []struct {
		name     string
		steps    [][]cc.Packet
		barriers int64 // Deliver calls of the multi-step call
	}{
		{"two admissible steps", [][]cc.Packet{stepPackets(1, n, n), stepPackets(2, n, n)}, 1},
		{"multi-batch steps", [][]cc.Packet{hotSource(n, 3*n+1), stepPackets(3, n, n), append(hotSource(n, 2*n), stepPackets(8, n, 2*n)...)}, 1},
		{"empty steps", [][]cc.Packet{nil, stepPackets(4, n, n), {}, nil}, 1},
		{"all steps empty", [][]cc.Packet{nil, {}}, 0},
		{"past n*n packets", [][]cc.Packet{hotSource(n, n*n-n), hotSource(n, 2*n), stepPackets(5, n, n)}, 2},
		// About 410 kB on the wire each: two share a delivery, a third
		// would take it past a megabyte.
		{"past a megabyte", [][]cc.Packet{wideStep(10, n, n, 3200), wideStep(11, n, n, 3200), wideStep(12, n, n, 3200)}, 2},
		{"a lone step past a megabyte", [][]cc.Packet{stepPackets(13, n, n), wideStep(14, n, n, 8192), stepPackets(15, n, n)}, 3},
		{"bad endpoint in a later step", [][]cc.Packet{stepPackets(6, n, n), hotSource(n, 2*n), bad, stepPackets(7, n, n)}, 0},
	}
	for _, tc := range cases {
		for _, backend := range []string{"nil", "mem", "counting"} {
			t.Run(tc.name+"/"+backend, func(t *testing.T) {
				open := func() (cc.Transport, func() int64) {
					switch backend {
					case "mem":
						m := &countedMem{Mem: transport.NewMem()}
						return m, func() int64 { return m.calls }
					case "counting":
						c := &cc.CountingTransport{}
						return c, c.Calls
					}
					return nil, func() int64 { return 0 }
				}
				tr, calls := open()
				merged := recordSteps(t, func(led *rounds.Ledger) ([][][]cc.Packet, []cc.RouteResult, error) {
					steps := make([]cc.Step, len(tc.steps))
					for i, pkts := range tc.steps {
						steps[i] = cc.Step{Packets: pkts, Tag: fmt.Sprintf("s%d", i%2), Buf: &bufs[i]}
					}
					err := cc.Net{Transport: tr, Ledger: led}.RouteSteps(n, steps)
					outs := make([][][]cc.Packet, len(steps))
					results := make([]cc.RouteResult, len(steps))
					for i, st := range steps {
						outs[i], results[i] = st.Out, st.Result
					}
					return outs, results, err
				})
				if tr != nil && calls() != tc.barriers {
					t.Fatalf("the multi-step call made %d Deliver calls, want %d", calls(), tc.barriers)
				}
				seqTr, _ := open()
				single := recordSteps(t, func(led *rounds.Ledger) ([][][]cc.Packet, []cc.RouteResult, error) {
					outs := make([][][]cc.Packet, len(tc.steps))
					results := make([]cc.RouteResult, len(tc.steps))
					for i, pkts := range tc.steps {
						tag := fmt.Sprintf("s%d", i%2)
						out, res, err := cc.Net{Transport: seqTr, Ledger: led}.Route(n, pkts, tag, nil)
						results[i] = res.RouteResult
						if err != nil {
							// RouteSteps names the failing step.
							return make([][][]cc.Packet, len(tc.steps)), results, fmt.Errorf("cc: route step %d %q: %w", i, tag, err)
						}
						outs[i] = out
					}
					return outs, results, nil
				})
				if (merged.err != "") != (tc.name == "bad endpoint in a later step") {
					t.Fatalf("error %q", merged.err)
				}
				if merged.err == "" {
					for i, pkts := range tc.steps {
						want, _, err := cc.Net{}.Route(n, pkts, "", nil)
						if err != nil {
							t.Fatal(err)
						}
						if got := merged.outs[i]; fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("step %d delivers\n%v\nin process\n%v", i, got, want)
						}
					}
				}
				if !reflect.DeepEqual(merged, single) {
					t.Fatalf("the multi-step call reports\n%+v\none call at a time\n%+v", merged, single)
				}
			})
		}
	}
}

// TestReliableRouteStepsOneCallPerStep: under a fault plan — a lossy one,
// and one whose message rates are all zero — RouteSteps routes each step
// as its own Route call, in order, in process and over the counting
// transport. That is the barrier schedule the ring layer has under a plan:
// the steps do not share barriers, so Deliver counts, and the chaos kill
// schedules indexed by them, are those of a loop of Route calls. The call
// reports exactly what such a loop reports under the same plan — outputs,
// results, every ledger charge in order, the route metrics and the
// reliable layer's counters — and each step's Out is its clean routing.
func TestReliableRouteStepsOneCallPerStep(t *testing.T) {
	const n = 16
	packets := [][]cc.Packet{stepPackets(21, n, n), nil, stepPackets(22, n, n), stepPackets(23, n, n/2)}
	plans := []struct {
		name string
		plan *cc.FaultPlan
	}{
		{"lossy", &cc.FaultPlan{Seed: 7, Drop: 0.1, Corrupt: 0.05, Duplicate: 0.05, Delay: 0.05}},
		{"zero-rate", &cc.FaultPlan{Seed: 7}},
	}
	for _, pc := range plans {
		for _, counted := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/transport=%t", pc.name, counted), func(t *testing.T) {
				open := func() (cc.Transport, func() int64) {
					if !counted {
						return nil, func() int64 { return 0 }
					}
					c := &cc.CountingTransport{}
					return c, c.Calls
				}
				tr, calls := open()
				var bufs [4]cc.RouteBuffer
				merged := recordSteps(t, func(led *rounds.Ledger) ([][][]cc.Packet, []cc.RouteResult, error) {
					steps := make([]cc.Step, len(packets))
					for i, pkts := range packets {
						steps[i] = cc.Step{Packets: pkts, Tag: fmt.Sprintf("s%d", i%2), Buf: &bufs[i]}
					}
					err := cc.Net{Transport: tr, Faults: pc.plan, Ledger: led}.RouteSteps(n, steps)
					outs := make([][][]cc.Packet, len(steps))
					results := make([]cc.RouteResult, len(steps))
					for i, st := range steps {
						outs[i], results[i] = st.Out, st.Result
					}
					return outs, results, err
				})
				seqTr, seqCalls := open()
				single := recordSteps(t, func(led *rounds.Ledger) ([][][]cc.Packet, []cc.RouteResult, error) {
					outs := make([][][]cc.Packet, len(packets))
					results := make([]cc.RouteResult, len(packets))
					for i, pkts := range packets {
						out, res, err := cc.Net{Transport: seqTr, Faults: pc.plan, Ledger: led}.Route(n, pkts, fmt.Sprintf("s%d", i%2), nil)
						if err != nil {
							return nil, nil, err
						}
						outs[i], results[i] = out, res.RouteResult
					}
					return outs, results, nil
				})
				if merged.err != "" {
					t.Fatal(merged.err)
				}
				if !reflect.DeepEqual(merged, single) {
					t.Fatalf("the multi-step call reports\n%+v\none call at a time\n%+v", merged, single)
				}
				for i, pkts := range packets {
					want, _, err := cc.Net{}.Route(n, pkts, "", nil)
					if err != nil {
						t.Fatal(err)
					}
					if got := merged.outs[i]; fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d delivers\n%v\nclean\n%v", i, got, want)
					}
				}
				if pc.plan.Drop > 0 && merged.resent == 0 {
					t.Fatal("the lossy plan forced no retransmission")
				}
				if !counted {
					return
				}
				if calls() != seqCalls() {
					t.Fatalf("the multi-step call made %d Deliver calls, one call at a time %d", calls(), seqCalls())
				}
				// Without faults, each non-empty step is one barrier; a
				// clean multi-step call would share one for all of them.
				if pc.plan.Drop == 0 && calls() != 3 {
					t.Fatalf("under a zero-rate plan the steps made %d Deliver calls, want 3", calls())
				}
			})
		}
	}
}
