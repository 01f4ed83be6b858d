package cc

import (
	"slices"
	"sync"

	"lapcc/internal/rounds"
)

// batchScratch holds the reusable working state of one RouteBatched
// invocation: the per-node admissibility counters, the current batch's
// packet arena and the output each flush is routed into before it is
// appended to the call's output. Every flush zeroes the packets it used in
// both, so pooled scratch does not pin caller data. Instances are recycled
// through batchPool so steady-state RouteBatched calls allocate only their
// output (matching Route, whose own scratch is pooled in routing.go).
type batchScratch struct {
	srcCount, dstCount []int
	batch              []Packet
	flushed            RouteBuffer
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// counters returns zeroed per-node source and destination counters.
func (s *batchScratch) counters(n int) (srcCount, dstCount []int) {
	if cap(s.srcCount) < n {
		s.srcCount = make([]int, n)
		s.dstCount = make([]int, n)
	}
	s.srcCount = s.srcCount[:n]
	s.dstCount = s.dstCount[:n]
	clear(s.srcCount)
	clear(s.dstCount)
	return s.srcCount, s.dstCount
}

// batchArena returns an empty packet arena with room for m packets.
func (s *batchScratch) batchArena(m int) []Packet {
	if cap(s.batch) < m {
		s.batch = make([]Packet, 0, m)
	}
	return s.batch[:0]
}

// RouteBatched delivers an arbitrary packet set by splitting it into
// admissible batches (every node source and destination of at most n packets
// per batch) and routing each batch with Route. Nodes owning many virtual
// objects (e.g. a flow-network vertex with many parallel edges) legitimately
// need more rounds to move proportionally more messages; batching charges
// exactly that.
func RouteBatched(n int, packets []Packet, ledger *rounds.Ledger, tag string) ([][]Packet, RouteResult, error) {
	return routeBatchedVia(nil, n, packets, ledger, tag, nil)
}

// routeBatchedVia is the batching loop with an optional transport threaded
// into every flush, so each admissible batch is physically delivered on its
// own barrier and the per-destination concatenation order matches the
// in-process version batch for batch. The output is laid out in buf (fresh
// when buf is nil).
func routeBatchedVia(t Transport, n int, packets []Packet, ledger *rounds.Ledger, tag string, buf *RouteBuffer) ([][]Packet, RouteResult, error) {
	var agg RouteResult
	s := batchPool.Get().(*batchScratch)
	defer batchPool.Put(s)
	srcCount, dstCount := s.counters(n)

	// Final per-node totals are known upfront. A non-empty set within the
	// admissibility bound everywhere is exactly the one-flush case below —
	// one batch holding every packet in order — so it is RouteVia's result
	// as it stands, with the same charges and the same single barrier.
	valid := true
	for _, p := range packets {
		if p.Src < 0 || p.Src >= n || p.Dst < 0 || p.Dst >= n {
			valid = false
			continue
		}
		srcCount[p.Src]++
		dstCount[p.Dst]++
	}
	if valid && len(packets) > 0 && slices.Max(srcCount) <= n && slices.Max(dstCount) <= n {
		return routeVia(t, n, packets, ledger, tag, buf)
	}
	// Otherwise size the output exactly once from the per-destination
	// totals, replacing per-flush append growth.
	out := buf.output(n, dstCount)
	clear(srcCount)
	clear(dstCount)
	batch := s.batchArena(len(packets))

	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		delivered, res, err := routeVia(t, n, batch, ledger, tag, &s.flushed)
		// Zero the flushed packets' payload pointers so pooled scratch
		// does not pin caller data.
		clear(batch)
		batch = batch[:0]
		if err != nil {
			return err
		}
		agg.Executed += res.Executed
		agg.Charged += res.Charged
		agg.LinkMessages += res.LinkMessages
		agg.Overflowed = agg.Overflowed || res.Overflowed
		for d := 0; d < n; d++ {
			out[d] = append(out[d], delivered[d]...)
			clear(delivered[d])
		}
		clear(srcCount)
		clear(dstCount)
		return nil
	}

	for _, p := range packets {
		if p.Src < 0 || p.Src >= n || p.Dst < 0 || p.Dst >= n {
			// Let Route produce the canonical error for bad endpoints. The
			// continue is load-bearing: without it a (hypothetically)
			// non-erroring delegated call would fall through to the
			// srcCount/dstCount indexing below and panic on a negative or
			// out-of-range index.
			if err := flush(); err != nil {
				return nil, agg, err
			}
			if _, _, err := Route(n, []Packet{p}, nil, tag); err != nil {
				return nil, agg, err
			}
			continue
		}
		if srcCount[p.Src] >= n || dstCount[p.Dst] >= n {
			if err := flush(); err != nil {
				return nil, agg, err
			}
		}
		srcCount[p.Src]++
		dstCount[p.Dst]++
		batch = append(batch, p)
	}
	if err := flush(); err != nil {
		return nil, agg, err
	}
	return out, agg, nil
}
