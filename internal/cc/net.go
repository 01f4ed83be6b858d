package cc

import (
	"errors"
	"fmt"

	"lapcc/internal/rounds"
)

// Net is one congested clique as an algorithm reaches it: the medium that
// carries its messages, the fault plan they run under and the ledger that
// counts their rounds. Its three methods are the routing primitives; how
// faults and transports change them is decided here and nowhere else. The
// zero value is a clean in-process clique whose rounds go uncounted.
type Net struct {
	// Transport, if non-nil, physically carries every delivery: the
	// in-process wire codec or a TCP mesh (routevia.go). Outputs, charges
	// and metrics are bit-identical to the in-process delivery.
	Transport Transport
	// Faults, if non-nil, runs every primitive under the plan, with
	// delivery restored by the reliable layer (reliable.go). Outputs stay
	// bit-identical to a clean run; only the round cost grows.
	Faults *FaultPlan
	// Ledger, if non-nil, is charged every round the primitives use.
	Ledger *rounds.Ledger
}

// Route delivers an arbitrary packet set by Lenzen's routing [Len13]. The
// set is split, in packet order, into admissible batches — every node the
// source and the destination of at most n packets — and each batch is
// relayed in two phases, one message per ordered pair per round, and
// charged on its own under tag. A node owning many virtual objects (a
// flow-network vertex with many parallel edges) thus pays proportionally
// more rounds for proportionally more messages.
//
// The output is indexed by destination: each destination's packets come
// batch by batch, each batch's in canonical (source, payload) order, every
// out[d] a capacity-capped window that is nil when d receives nothing. It
// is laid out in buf, which grows to the largest delivery seen and is then
// reused, so a warm call allocates nothing; the output is valid until buf's
// next call. A nil buf gives a fresh output (two allocations). Over a
// transport all the batches ship on one delivery barrier (more only past
// n² packets or about a megabyte), and their payloads are copied into the
// output.
//
// Under a plan that can fault messages the reliable layer retransmits until
// every packet is delivered exactly once: the output is fresh (buf is not
// used), each destination's packets in canonical order, and the result
// counts the waves and the faults absorbed. Otherwise the result is the
// routing's with one attempt.
func (net Net) Route(n int, packets []Packet, tag string, buf *RouteBuffer) ([][]Packet, ReliableResult, error) {
	if !net.Faults.messageFates() {
		out, res, err := net.routeClean(n, packets, tag, buf)
		return out, ReliableResult{RouteResult: res, Attempts: 1}, err
	}
	out, res, err := reliableDeliver(net, n, packets, tag)
	instrumentsFor(globalMetrics.Load()).recordReliable(res, errors.Is(err, ErrDeliveryFailed))
	return out, res, err
}

// routeClean is Route without faults: in process, or over net's transport.
func (net Net) routeClean(n int, packets []Packet, tag string, buf *RouteBuffer) ([][]Packet, RouteResult, error) {
	if net.Transport == nil {
		return routeBatched(n, packets, net.Ledger, tag, buf)
	}
	return routeVia(net.Transport, n, packets, net.Ledger, tag, buf)
}

// RouteSteps routes independent steps — no step's packets may depend on
// another step's delivery — in one call. Every step, and every admissible
// batch inside it, is checked and charged in order exactly as its own Route
// call would be: the same Result, the same ledger entries in the same order
// and the same route metrics, and each step's Out is, packet for packet,
// what Route returns for it. Over a transport without a fault plan the
// steps share delivery barriers, as few as hold at most n² messages and
// about a megabyte each; an empty step is neither charged nor shipped. In
// process, and under any fault plan, each step is its own Route call, in
// order, so each has its own barriers.
//
// On error no step's Out is set. The steps ahead of the failing one, and
// the failing step's batches ahead of a bad packet, are charged, as routing
// the steps one call at a time would charge them; the error of a step's
// check names its index and tag.
func (net Net) RouteSteps(n int, steps []Step) error {
	for i := range steps {
		steps[i].Out, steps[i].Result = nil, RouteResult{}
	}
	if net.Transport != nil && net.Faults == nil {
		return routeSteps(net.Transport, n, steps, net.Ledger)
	}
	for i := range steps {
		st := &steps[i]
		out, res, err := net.Route(n, st.Packets, st.Tag, st.Buf)
		st.Result = res.RouteResult
		if err != nil {
			for j := range steps[:i] {
				steps[j].Out = nil
			}
			return stepError(i, st.Tag, err)
		}
		st.Out = out
	}
	return nil
}

// Broadcast is the one-round primitive in which every node announces one
// word to all others. It returns the announced values, freshly allocated,
// and charges one measured round under tag: the "each node broadcasts its
// ID" step used when constructing product demand graphs (Theorem 3.3).
// Over a transport every word is shipped to the n-1 others and the result
// is read back from the wire copies. Under a plan that can fault messages,
// the ordered pairs that missed the announcement get it again through the
// reliable layer, charged under tag+"-retry".
func (net Net) Broadcast(n int, values []int64, tag string) ([]int64, ReliableResult, error) {
	var res ReliableResult
	if len(values) != n {
		return nil, res, fmt.Errorf("cc: %d values for %d nodes", len(values), n)
	}
	plan := net.Faults
	faulty := plan.messageFates()
	if faulty {
		if err := plan.Validate(); err != nil {
			return nil, res, err
		}
	}
	if net.Ledger != nil {
		net.Ledger.Add(tag, rounds.Measured, 1, "all-to-all broadcast, 1 round")
	}
	if mi := instrumentsFor(globalMetrics.Load()); mi != nil {
		mi.broadcasts.Inc()
		mi.routeRounds.Inc()
		mi.routeMessages.Add(int64(n) * int64(n-1))
		mi.routeWords.Add(int64(n) * int64(n-1))
	}
	got := append([]int64(nil), values...)
	if net.Transport != nil {
		if err := broadcastVia(net.Transport, n, values, got); err != nil {
			return nil, res, fmt.Errorf("cc: transport broadcast %q: %w", tag, err)
		}
	}
	res.Attempts = 1
	if !faulty {
		return got, res, nil
	}
	// Decide which ordered pairs missed the broadcast; any non-clean fate
	// forces a retransmission (corrupted and late copies are useless to the
	// receiver, duplicates are harmless).
	var failed []Packet
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			kind := plan.packetFate(src*n+dst, -1)
			switch kind {
			case faultDrop:
				res.Faults.Dropped++
			case faultCorrupt:
				res.Faults.Corrupted++
			case faultDelay:
				res.Faults.Delayed++
			case faultDuplicate:
				res.Faults.Duplicated++
				continue
			default:
				continue
			}
			failed = append(failed, Packet{Src: src, Dst: dst, Data: []int64{values[src]}})
		}
	}
	if len(failed) > 0 {
		_, retry, err := reliableDeliver(net, n, failed, tag+"-retry")
		if err != nil {
			instrumentsFor(globalMetrics.Load()).recordReliable(res, errors.Is(err, ErrDeliveryFailed))
			return nil, res, err
		}
		res.RouteResult = retry.RouteResult
		res.Attempts += retry.Attempts
		res.Retransmitted += int64(len(failed)) + retry.Retransmitted
		res.AckRounds += retry.AckRounds
		res.BackoffRounds += retry.BackoffRounds
		res.Faults.add(retry.Faults)
	}
	instrumentsFor(globalMetrics.Load()).recordReliable(res, false)
	return got, res, nil
}
