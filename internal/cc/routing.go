// Package cc simulates the congested clique model of Lotker, Patt-Shamir,
// Pavlov, and Peleg [LPSPP05]: n processors communicate in synchronous
// rounds, and in each round every ordered pair of nodes may exchange one
// message of O(log n) bits.
//
// Every algorithm in this repository reaches the clique through one Net
// value (net.go) — a transport, a fault plan and a ledger — and its three
// routing primitives, and the simulator counts the rounds each one uses:
//
//   - Net.Route, Lenzen's routing [Len13]: an arbitrary packet set is split
//     into admissible batches, in which every node is the source and the
//     destination of at most n packets, and each batch is delivered by a
//     two-phase relay in which each ordered pair carries at most one
//     message per round;
//   - Net.RouteSteps, several independent packet sets in one call, each
//     routed and charged as its own Route call;
//   - Net.Broadcast: every node announces one word to all others in one
//     round.
//
// A Net with a Transport carries the same packets through it, the
// in-process wire codec or a TCP mesh, with the same charges and
// bit-identical output (routevia.go). Every admissible batch is charged on
// its own, but a delivery barrier carries as many batches as fit in n²
// messages and about a megabyte on the wire: a route's batches share one,
// and so do the independent steps of one RouteSteps call (a ring's
// successor and predecessor exchanges). A Net with a FaultPlan runs the
// primitives under it and restores delivery with acknowledgements and
// bounded retransmission (reliable.go).
package cc

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"lapcc/internal/rounds"
)

// Packet is a source-routed message for the Lenzen routing primitive.
type Packet struct {
	Src, Dst int
	Data     []int64
}

// RouteResult reports how a routing invocation was executed and charged.
type RouteResult struct {
	// Executed is the number of rounds the simulator's two-phase relay
	// scheduler actually used.
	Executed int64
	// LinkMessages is the number of physical link messages moved (relay
	// hops count; locally-held packets do not) — the message-complexity
	// counterpart to the round counts.
	LinkMessages int64
	// Charged is the number of rounds recorded in the ledger:
	// min(Executed, rounds.LenzenRoundBound). Lenzen's theorem [Len13]
	// guarantees a (more intricate) deterministic scheduler delivers any
	// admissible message set in at most 16 rounds, so charging that bound
	// when our simple relay needs longer is faithful to the paper's
	// accounting; the Executed figure is kept for transparency.
	Charged int64
	// Overflowed records whether Executed exceeded the Lenzen bound.
	Overflowed bool
}

// ErrBadRecipient reports a packet whose source or destination is outside
// the clique.
var ErrBadRecipient = errors.New("cc: recipient out of range")

// badRecipient is the error for packet p, whose source or destination lies
// outside the n-clique.
func badRecipient(n int, p Packet) error {
	return fmt.Errorf("%w: packet %d -> %d with n=%d", ErrBadRecipient, p.Src, p.Dst, n)
}

// add folds another routing invocation's result into r.
func (r *RouteResult) add(o RouteResult) {
	r.Executed += o.Executed
	r.Charged += o.Charged
	r.LinkMessages += o.LinkMessages
	r.Overflowed = r.Overflowed || o.Overflowed
}

// routeScratch holds the reusable working state of one relay schedule:
// count/offset tables, the counting-sort arenas that replace the old
// per-source and per-intermediate slice-of-slices, and the epoch-stamped
// per-destination multiplicity table that replaces the old per-intermediate
// map[int]int64. Every routing call's pooled stepsScratch holds one
// (batch.go), so steady-state routing calls allocate only their output.
type routeScratch struct {
	srcCount, dstCount []int
	srcOff             []int
	interCount         []int
	interOff           []int
	bySrc              []Packet
	atInter            []Packet

	perDst      []int64
	perDstStamp []int64
	perDstEpoch int64
}

func (s *routeScratch) resize(n, m int) {
	if cap(s.srcCount) < n {
		s.srcCount = make([]int, n)
		s.dstCount = make([]int, n)
		s.srcOff = make([]int, n+1)
		s.interCount = make([]int, n)
		s.interOff = make([]int, n+1)
		s.perDst = make([]int64, n)
		s.perDstStamp = make([]int64, n)
		s.perDstEpoch = 0
	}
	s.srcCount = s.srcCount[:n]
	s.dstCount = s.dstCount[:n]
	s.srcOff = s.srcOff[:n+1]
	s.interCount = s.interCount[:n]
	s.interOff = s.interOff[:n+1]
	s.perDst = s.perDst[:n]
	s.perDstStamp = s.perDstStamp[:n]
	clear(s.srcCount)
	clear(s.dstCount)
	clear(s.interCount)
	if cap(s.bySrc) < m {
		s.bySrc = make([]Packet, m)
		s.atInter = make([]Packet, m)
	}
	s.bySrc = s.bySrc[:m]
	s.atInter = s.atInter[:m]
}

// dropPackets zeroes the packet arenas' payload pointers so pooled scratch
// does not pin caller data.
func (s *routeScratch) dropPackets() {
	clear(s.bySrc)
	clear(s.atInter)
}

// routeCore relays one admissible batch — in range, every node the source
// and the destination of at most n packets, as split guarantees — on an
// n-clique in two phases (round-robin distribution to intermediates, then
// delivery), one message per ordered pair per round in every phase. It
// charges the ledger the batch's Charged rounds under tag and records the
// route metrics. With build set it also lays the delivery out into buf's
// output (a fresh one when buf is nil) in canonical order. Without it the
// call only charges — the transport path, whose delivery the transport
// rebuilds, skips the output layout, the append loop and the sort, and
// gets a nil output. srcCount and dstCount are the batch's per-node
// packet counts when the caller has them (split's, for a set that is one
// batch); nil has routeCore count them.
func (s *routeScratch) routeCore(n int, packets []Packet, srcCount, dstCount []int, ledger *rounds.Ledger, tag string, buf *RouteBuffer, build bool) ([][]Packet, RouteResult) {
	defer s.dropPackets()
	s.resize(n, len(packets))

	if srcCount == nil {
		srcCount, dstCount = s.srcCount, s.dstCount
		for _, p := range packets {
			srcCount[p.Src]++
			dstCount[p.Dst]++
		}
	}

	// Phase 1 (1 round): source s relays its j-th packet to intermediate
	// (s+j+1) mod n; the ≤ n packets of one source go to distinct
	// intermediates, so each ordered pair carries at most one message.
	// Packets whose intermediate equals the source or the destination stay
	// put / go direct without consuming the pair twice.
	//
	// Grouping is a stable counting sort into the recycled bySrc arena, so
	// within a source the original packet order is preserved — the same
	// order the old slice-of-slices append produced.
	srcOff := s.srcOff
	sum := 0
	for v := 0; v < n; v++ {
		srcOff[v] = sum
		sum += srcCount[v]
	}
	srcOff[n] = sum
	bySrc := s.bySrc
	for _, p := range packets {
		bySrc[srcOff[p.Src]] = p
		srcOff[p.Src]++
	}
	// srcOff[v] now points one past source v's segment, i.e. at the start
	// index of v+1; recover segment starts from srcOff[v-1].
	var executed int64
	var linkMessages int64
	phase1Sent := false
	interCount := s.interCount
	segStart := 0
	for v := 0; v < n; v++ {
		for j := segStart; j < srcOff[v]; j++ {
			inter := (v + (j - segStart) + 1) % n
			if inter != v {
				phase1Sent = true
				linkMessages++
			}
			interCount[inter]++
		}
		segStart = srcOff[v]
	}
	if phase1Sent {
		executed++
	}
	interOff := s.interOff
	sum = 0
	for v := 0; v < n; v++ {
		interOff[v] = sum
		sum += interCount[v]
	}
	interOff[n] = sum
	atInter := s.atInter
	segStart = 0
	for v := 0; v < n; v++ {
		for j := segStart; j < srcOff[v]; j++ {
			inter := (v + (j - segStart) + 1) % n
			atInter[interOff[inter]] = bySrc[j]
			interOff[inter]++
		}
		segStart = srcOff[v]
	}

	// Phase 2: intermediates deliver to destinations, one message per
	// ordered pair per round. The number of rounds is the maximum, over
	// intermediates w, of the largest per-destination multiplicity at w.
	// The multiplicity table is a flat epoch-stamped array: bumping the
	// epoch per intermediate replaces clearing (or reallocating) a map.
	var out [][]Packet
	if build {
		out = buf.output(n, dstCount)
	}
	var phase2 int64
	perDst, perDstStamp := s.perDst, s.perDstStamp
	segStart = 0
	for w := 0; w < n; w++ {
		s.perDstEpoch++
		for j := segStart; j < interOff[w]; j++ {
			p := atInter[j]
			if p.Dst == w {
				if build {
					out[w] = append(out[w], p) // already local: no round needed
				}
				continue
			}
			linkMessages++
			if perDstStamp[p.Dst] != s.perDstEpoch {
				perDstStamp[p.Dst] = s.perDstEpoch
				perDst[p.Dst] = 0
			}
			perDst[p.Dst]++
			if perDst[p.Dst] > phase2 {
				phase2 = perDst[p.Dst]
			}
			if build {
				out[p.Dst] = append(out[p.Dst], p)
			}
		}
		segStart = interOff[w]
	}
	executed += phase2

	res := RouteResult{Executed: executed, Charged: executed, LinkMessages: linkMessages}
	if executed > rounds.LenzenRoundBound {
		res.Charged = rounds.LenzenRoundBound
		res.Overflowed = true
	}
	if ledger != nil && res.Charged > 0 {
		ledger.Add(tag, rounds.Measured, res.Charged, rounds.CiteLenzen)
	}
	mi := instrumentsFor(globalMetrics.Load())
	if mi != nil || (ledger != nil && ledger.HasSink()) {
		var words int64
		for _, p := range packets {
			words += 1 + int64(len(p.Data))
		}
		if ledger != nil && ledger.HasSink() {
			ledger.AddTraffic(tag, res.LinkMessages, words)
		}
		mi.recordRoute(res, words)
	}
	// Deterministic per-destination order (by source, then payload) so the
	// overall simulation is reproducible even though the model itself
	// delivers unordered sets.
	canonicalOrder(out)
	return out, res
}

// RouteBuffer is a caller-owned, reusable routing output (Net.Route's buf):
// a route into it delivers exactly what a route into a fresh output
// delivers — the same packets, RouteResult, ledger charges and barriers —
// but lays the output out in the buffer's own memory, which it grows to the
// largest delivery seen and then reuses, so a warm call allocates nothing
// of its own. Over a transport the delivered payloads are copied into the
// buffer too. The returned per-destination slices alias the buffer and are
// valid until its next call; a destination that receives nothing reads nil.
// The zero value is ready to use. A RouteBuffer must not be used by two
// goroutines at once.
type RouteBuffer struct {
	arena []Packet
	out   [][]Packet
	words []int64
}

// output returns a routing output with room for count[d] packets at
// destination d: every out[d] is an empty window of one arena,
// capacity-capped at count[d], so filling it by append never reallocates
// and a caller's later append to out[d] reallocates instead of overwriting
// out[d+1]'s packets; a destination with no packets gets nil. A nil b
// returns a fresh output (two allocations however many destinations
// receive); otherwise the windows are carved from b's memory.
func (b *RouteBuffer) output(n int, count []int) [][]Packet {
	total := 0
	for _, c := range count[:n] {
		total += c
	}
	var arena []Packet
	var out [][]Packet
	if b == nil {
		arena, out = make([]Packet, total), make([][]Packet, n)
	} else {
		b.arena, b.out = grow(b.arena, total), grow(b.out, n)
		arena, out = b.arena, b.out
	}
	off := 0
	for d, c := range count[:n] {
		if c > 0 {
			out[d] = arena[off : off : off+c]
			off += c
		} else {
			out[d] = nil
		}
	}
	return out
}

// wordArena returns room for the payload words of a delivery: b's own
// memory, or a fresh arena when b is nil, so the payloads outlive the
// transport's buffers either way.
func (b *RouteBuffer) wordArena(words int) []int64 {
	if b == nil {
		if words == 0 {
			return nil
		}
		return make([]int64, words)
	}
	b.words = grow(b.words, words)
	return b.words
}

// grow returns buf resized to length n, reallocating only when its capacity
// is short; the contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// canonicalOrder sorts every destination's packets by (source, payload) —
// the deterministic order of every batch, in process, over a transport and
// under the reliable layer, which is what makes their outputs
// interchangeable.
func canonicalOrder(out [][]Packet) {
	for _, pk := range out {
		slices.SortFunc(pk, comparePackets)
	}
}

// comparePackets orders packets by source, then payload lexicographically
// (a proper prefix first).
func comparePackets(a, b Packet) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return slices.Compare(a.Data, b.Data)
}
