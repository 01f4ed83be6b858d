package cc

import (
	"slices"
	"sync"

	"lapcc/internal/rounds"
)

// stepsScratch holds the reusable working state of one batched or
// transport-backed routing call: the per-node admissibility counters, the
// call's admissible batches and the arena holding the batches that had to
// be split out of their step, the output each in-process batch is routed
// into before it is appended to the call's output, and the delivery tables
// of the transport path (routevia.go). release zeroes every reference to
// caller data, so pooled scratch pins none. Instances are recycled through
// stepsPool so steady-state calls allocate only their output.
type stepsScratch struct {
	srcCount, dstCount []int
	units              []unit
	arena              []Packet
	total              []int
	flushed            RouteBuffer
	relay              routeScratch // every batch's relay schedule (routing.go)

	// The transport path's delivery tables (routevia.go).
	outs      [][][]Packet // every step's output
	cur       []int        // cur[u*n+d]: unit u's next slot in its step's out[d]
	stepWords [][]int64    // every step's payload arena
	wordOff   []int        // every step's next free payload word
	srcStart  []int
	dstStart  []int
	msgs      []OutMsg
	unitOf    []int32 // the unit of every outbox position
	byDst     []int32 // outbox positions grouped by destination
	words     []int64 // the outbox's payload arena
	outbox    [1]Outbox
}

// unit is one admissible batch of a step: routed by one relay schedule,
// charged on its own, and shipped whole in one delivery. Its packets are
// window lo..hi of the step's own packets, or of the scratch arena when
// the step was split; a window, not a slice, so pooled scratch never holds
// a caller's packet slice and the slice need not escape to the heap.
type unit struct {
	step   int
	lo, hi int
	split  bool
	words  int // payload words, totalled by the transport path's layout
}

// msgs is the number of messages u carries.
func (u unit) msgs() int { return u.hi - u.lo }

// wireBytes bounds u's encoded size on the wire generously: the wire codec
// spends 12 bytes on a message's header and 8 on each payload word.
func (u unit) wireBytes() int { return 16*u.msgs() + 8*u.words }

// batch returns u's packets; packets is the packet set of u's step.
func (s *stepsScratch) batch(u unit, packets []Packet) []Packet {
	if u.split {
		return s.arena[u.lo:u.hi]
	}
	return packets[u.lo:u.hi]
}

var stepsPool = sync.Pool{New: func() any { return new(stepsScratch) }}

// release zeroes every reference the scratch holds to caller packets and
// outputs, then returns it to the pool.
func (s *stepsScratch) release() {
	s.units = s.units[:0]
	clear(s.arena)
	s.arena = s.arena[:0]
	clear(s.outs)
	clear(s.stepWords)
	stepsPool.Put(s)
}

// counters returns zeroed per-node source and destination counters.
func (s *stepsScratch) counters(n int) (srcCount, dstCount []int) {
	s.srcCount, s.dstCount = grow(s.srcCount, n), grow(s.dstCount, n)
	clear(s.srcCount)
	clear(s.dstCount)
	return s.srcCount, s.dstCount
}

// split appends step's admissible batches to s.units, in packet order: the
// whole set when it is non-empty and every node is the source and the
// destination of at most n of its packets, otherwise windows of s.arena,
// each closed when the next packet would take some node past n. A packet
// with an endpoint outside the clique closes the current batch and ends the
// split with ErrBadRecipient, so the batches ahead of it are still routed
// and charged, as routing the set batch by batch would.
func (s *stepsScratch) split(n, step int, packets []Packet) error {
	srcCount, dstCount := s.counters(n)
	valid := true
	for _, p := range packets {
		if p.Src < 0 || p.Src >= n || p.Dst < 0 || p.Dst >= n {
			valid = false
			continue
		}
		srcCount[p.Src]++
		dstCount[p.Dst]++
	}
	if len(packets) > 0 && valid && slices.Max(srcCount) <= n && slices.Max(dstCount) <= n {
		s.units = append(s.units, unit{step: step, hi: len(packets)})
		return nil
	}
	clear(srcCount)
	clear(dstCount)
	start := len(s.arena)
	closeBatch := func() {
		if end := len(s.arena); end > start {
			s.units = append(s.units, unit{step: step, lo: start, hi: end, split: true})
			start = end
			clear(srcCount)
			clear(dstCount)
		}
	}
	for _, p := range packets {
		if p.Src < 0 || p.Src >= n || p.Dst < 0 || p.Dst >= n {
			closeBatch()
			return badRecipient(n, p)
		}
		if srcCount[p.Src] >= n || dstCount[p.Dst] >= n {
			closeBatch()
		}
		srcCount[p.Src]++
		dstCount[p.Dst]++
		s.arena = append(s.arena, p)
	}
	closeBatch()
	return nil
}

// routeBatched is Net.Route in process, with the output laid out in buf
// (fresh when buf is nil). A set that is one admissible batch is routed as
// it stands; otherwise each batch is routed in turn and appended, so every
// destination's packets come batch by batch, each batch in canonical order.
func routeBatched(n int, packets []Packet, ledger *rounds.Ledger, tag string, buf *RouteBuffer) ([][]Packet, RouteResult, error) {
	s := stepsPool.Get().(*stepsScratch)
	defer s.release()
	err := s.split(n, 0, packets)
	if err == nil && len(s.units) == 1 && !s.units[0].split {
		out, res := s.relay.routeCore(n, packets, s.srcCount, s.dstCount, ledger, tag, buf, true)
		return out, res, nil
	}
	// Size the output once from the per-destination totals, replacing
	// per-batch append growth.
	total := grow(s.total, n)
	s.total = total
	clear(total)
	for _, u := range s.units {
		for _, p := range s.batch(u, packets) {
			total[p.Dst]++
		}
	}
	out := buf.output(n, total)
	var agg RouteResult
	for _, u := range s.units {
		delivered, res := s.relay.routeCore(n, s.batch(u, packets), nil, nil, ledger, tag, &s.flushed, true)
		agg.add(res)
		for d := 0; d < n; d++ {
			out[d] = append(out[d], delivered[d]...)
			// Drop the flush buffer's references to caller payloads.
			clear(delivered[d])
		}
	}
	if err != nil {
		return nil, agg, err
	}
	return out, agg, nil
}
