package cc

import (
	"fmt"
	"sync"

	"lapcc/internal/rounds"
)

// This file adds transport-backed variants of the routing primitives. The
// plain functions (Route, RouteBatched, BroadcastAll, Reliable*) compute
// deliveries analytically — packets move as Go slices, rounds are charged
// from the relay schedule. The *Via variants keep that accounting unchanged
// (same admissibility checks, same ledger charges, same RouteResult) but
// additionally push every payload through a Transport and re-materialize the
// output from what came back, so with the TCP backend the bytes genuinely
// cross process boundaries and sockets. The canonical per-destination order
// makes the result bit-identical to the in-process computation; the
// differential suites pin exactly that.
//
// A nil transport makes every *Via function identical to its plain
// counterpart, which is how the solver stack is wired: options thread one
// optional Transport down to these call sites.

// deliverScratch is transportDeliver's reusable working state: the
// counting-sort tables and the one outbox handed to the transport. Deliver
// is a synchronous barrier, so none of it is referenced once it returns.
// Instances are recycled through deliverPool.
type deliverScratch struct {
	starts []int
	order  []int
	msgs   []OutMsg
	words  []int64
	outbox [1]Outbox
}

var deliverPool = sync.Pool{New: func() any { return new(deliverScratch) }}

// transportDeliver ships packets through t as one delivery barrier and
// returns them re-materialized per destination, in the transport's
// ascending-source order, laid out in buf's output (fresh when buf is nil).
// It requires a backend whose delivered payloads do not alias the outbox
// (true of the wire backends, which decode fresh copies), since the outbox
// words are recycled for the next call.
func transportDeliver(t Transport, n int, packets []Packet, buf *RouteBuffer) ([][]Packet, DeliveryStats, error) {
	s := deliverPool.Get().(*deliverScratch)
	defer deliverPool.Put(s)
	// Stable counting sort by source: the transport contract wants ascending
	// source order across the outbox.
	starts := grow(s.starts, n+1)
	clear(starts)
	s.starts = starts
	for _, p := range packets {
		starts[p.Src+1]++
	}
	for v := 0; v < n; v++ {
		starts[v+1] += starts[v]
	}
	order := grow(s.order, len(packets))
	s.order = order
	for i, p := range packets {
		order[starts[p.Src]] = i
		starts[p.Src]++
	}
	words := 0
	for _, p := range packets {
		words += len(p.Data)
	}
	msgs := grow(s.msgs, len(packets))
	arena := grow(s.words, words)[:0]
	for pos, idx := range order {
		p := packets[idx]
		off := len(arena)
		arena = append(arena, p.Data...)
		msgs[pos] = OutMsg{From: int32(p.Src), To: int32(p.Dst), Off: int32(off), Width: int32(len(p.Data))}
	}
	s.msgs, s.words = msgs, arena
	s.outbox[0] = Outbox{Msgs: msgs, Arena: arena}
	inb, stats, err := t.Deliver(0, n, s.outbox[:])
	s.outbox[0] = Outbox{}
	if err != nil {
		return nil, stats, err
	}
	// Rebuild the output in one flat arena; starts, spent by the sort
	// above, holds the per-destination counts.
	for d := 0; d < n; d++ {
		starts[d] = len(inb[d])
	}
	out := buf.output(n, starts)
	for d := 0; d < n; d++ {
		for _, m := range inb[d] {
			out[d] = append(out[d], Packet{Src: m.From, Dst: d, Data: m.Data})
		}
	}
	return out, stats, nil
}

// RouteVia is Route with the payload bytes physically carried by t: the
// packet set is checked for admissibility and charged exactly as Route
// charges it (the ledger, RouteResult and metrics record what Route
// records), then shipped through the transport and rebuilt from its wire
// output in canonical order. A nil transport is plain Route. Outputs are
// bit-identical either way.
func RouteVia(t Transport, n int, packets []Packet, ledger *rounds.Ledger, tag string) ([][]Packet, RouteResult, error) {
	return routeVia(t, n, packets, ledger, tag, nil)
}

// routeVia is RouteVia with the output laid out in buf (fresh when nil).
// Over a transport the routing core only charges: the transport's delivery
// is the output, so building Route's as well would be thrown away.
func routeVia(t Transport, n int, packets []Packet, ledger *rounds.Ledger, tag string, buf *RouteBuffer) ([][]Packet, RouteResult, error) {
	if t == nil {
		return routeCore(n, packets, ledger, tag, buf, true)
	}
	_, res, err := routeCore(n, packets, ledger, tag, nil, false)
	if err != nil {
		return nil, res, err
	}
	phys, _, err := transportDeliver(t, n, packets, buf)
	if err != nil {
		return nil, res, fmt.Errorf("cc: transport route %q: %w", tag, err)
	}
	canonicalOrder(phys)
	return phys, res, nil
}

// RouteBatchedVia is RouteBatched over a transport: each admissible batch is
// carried by t, preserving the per-destination batch concatenation order of
// the in-process version. A nil transport is plain RouteBatched.
func RouteBatchedVia(t Transport, n int, packets []Packet, ledger *rounds.Ledger, tag string) ([][]Packet, RouteResult, error) {
	return routeBatchedVia(t, n, packets, ledger, tag, nil)
}

// BroadcastAllVia is BroadcastAll with the announcements physically carried
// by t: every node's word is shipped to all n-1 others and the returned
// vector is assembled from the wire copies (each node's own value needs no
// network). A nil transport is plain BroadcastAll.
func BroadcastAllVia(t Transport, n int, values []int64, ledger *rounds.Ledger, tag string) ([]int64, error) {
	if t == nil {
		return BroadcastAll(n, values, ledger, tag)
	}
	vals, err := BroadcastAll(n, values, ledger, tag)
	if err != nil {
		return nil, err
	}
	pkts := make([]Packet, 0, n*(n-1))
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if dst != src {
				pkts = append(pkts, Packet{Src: src, Dst: dst, Data: values[src : src+1]})
			}
		}
	}
	inb, _, err := transportDeliver(t, n, pkts, nil)
	if err != nil {
		return nil, fmt.Errorf("cc: transport broadcast %q: %w", tag, err)
	}
	got := make([]int64, n)
	copy(got, vals)
	for d := 0; d < n; d++ {
		for _, p := range inb[d] {
			got[p.Src] = p.Data[0]
		}
	}
	return got, nil
}

// routerFor binds a transport into the routerFunc shape the reliable wave
// loop consumes.
func routerFor(t Transport, batched bool) routerFunc {
	if t == nil {
		if batched {
			return RouteBatched
		}
		return Route
	}
	if batched {
		return func(n int, packets []Packet, ledger *rounds.Ledger, tag string) ([][]Packet, RouteResult, error) {
			return RouteBatchedVia(t, n, packets, ledger, tag)
		}
	}
	return func(n int, packets []Packet, ledger *rounds.Ledger, tag string) ([][]Packet, RouteResult, error) {
		return RouteVia(t, n, packets, ledger, tag)
	}
}
