// Package cc simulates the congested clique model of Lotker, Patt-Shamir,
// Pavlov, and Peleg [LPSPP05]: n processors communicate in synchronous
// rounds, and in each round every ordered pair of nodes may exchange one
// message of O(log n) bits.
//
// Every algorithm in this repository reaches the clique through three
// routing primitives, and the simulator counts the rounds each one uses:
//
//   - Route, Lenzen's routing [Len13]: any packet set in which every node is
//     the source and the destination of at most n packets, delivered by a
//     two-phase relay in which each ordered pair carries at most one message
//     per round;
//   - RouteBatched, for sets that break that condition: the set is split
//     into admissible batches, each routed in turn;
//   - BroadcastAll: every node announces one word to all others in one
//     round.
//
// Their Via forms (routevia.go) carry the same packets through a Transport,
// the in-process wire codec or a TCP mesh, with the same charges and
// bit-identical output. Their Reliable forms (reliable.go) run them under a
// deterministic FaultPlan and restore delivery with acknowledgements and
// bounded retransmission.
package cc

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

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

// ErrRoutingOverload reports a message set violating the admissibility
// condition of Lenzen routing: some node is the source or destination of
// more than n messages.
var ErrRoutingOverload = errors.New("cc: node exceeds n messages in routing instance")

// routeScratch holds the reusable working state of one Route invocation:
// count/offset tables, the counting-sort arenas that replace the old
// per-source and per-intermediate slice-of-slices, and the epoch-stamped
// per-destination multiplicity table that replaces the old per-intermediate
// map[int]int64. Instances are recycled through routePool so steady-state
// Route calls allocate only their output.
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

var routePool = sync.Pool{New: func() any { return new(routeScratch) }}

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
	for i := 0; i < n; i++ {
		s.srcCount[i] = 0
		s.dstCount[i] = 0
		s.interCount[i] = 0
	}
	if cap(s.bySrc) < m {
		s.bySrc = make([]Packet, m)
		s.atInter = make([]Packet, m)
	}
	s.bySrc = s.bySrc[:m]
	s.atInter = s.atInter[:m]
}

// release zeroes the packet arenas' payload pointers so pooled scratch does
// not pin caller data, then returns the scratch to the pool.
func (s *routeScratch) release() {
	for i := range s.bySrc {
		s.bySrc[i] = Packet{}
	}
	for i := range s.atInter {
		s.atInter[i] = Packet{}
	}
	routePool.Put(s)
}

// Route delivers the packets on an n-clique using a two-phase relay
// (round-robin distribution to intermediates, then delivery), enforcing the
// model's one-message-per-ordered-pair-per-round constraint in every phase.
// It requires the Lenzen admissibility condition: every node is the source
// of at most n packets and the destination of at most n packets.
//
// The returned slice is indexed by destination, each destination's packets
// in canonical (source, payload) order. It is freshly allocated and owned
// by the caller: two allocations per call, every out[d] a capacity-capped
// window of one arena (see RouteBuffer.output). The ledger, if non-nil, is
// charged Result.Charged measured rounds under the given tag.
func Route(n int, packets []Packet, ledger *rounds.Ledger, tag string) ([][]Packet, RouteResult, error) {
	return routeCore(n, packets, ledger, tag, nil, true)
}

// routeCore is the one implementation behind every routing primitive: the
// admissibility checks, the relay schedule, the ledger charges and the route
// metrics. With build set it also lays the delivery out into buf's output
// (a fresh one when buf is nil) in canonical order. Without it the call only
// charges — the transport-backed paths, whose delivery the transport
// rebuilds, skip the output layout, the append loop and the sort, and
// return a nil output.
func routeCore(n int, packets []Packet, ledger *rounds.Ledger, tag string, buf *RouteBuffer, build bool) ([][]Packet, RouteResult, error) {
	s := routePool.Get().(*routeScratch)
	defer s.release()
	s.resize(n, len(packets))

	srcCount, dstCount := s.srcCount, s.dstCount
	for _, p := range packets {
		if p.Src < 0 || p.Src >= n || p.Dst < 0 || p.Dst >= n {
			return nil, RouteResult{}, fmt.Errorf("%w: packet %d -> %d with n=%d", ErrBadRecipient, p.Src, p.Dst, n)
		}
		srcCount[p.Src]++
		dstCount[p.Dst]++
	}
	for v := 0; v < n; v++ {
		if srcCount[v] > n || dstCount[v] > n {
			return nil, RouteResult{}, fmt.Errorf("%w: node %d sends %d, receives %d (n=%d)",
				ErrRoutingOverload, v, srcCount[v], dstCount[v], n)
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
	return out, res, nil
}

// RouteBuffer is a caller-owned, reusable routing output. Its
// RouteBatchedVia delivers exactly what the package-level RouteBatchedVia
// delivers — the same packets, RouteResult, ledger charges and barriers —
// but lays the output out in the buffer's own memory, which it grows to the
// largest delivery seen and then reuses, so a warm call allocates nothing
// of its own. The returned per-destination slices alias the buffer and are
// valid until its next call; a destination that receives nothing reads nil.
// The zero value is ready to use. A RouteBuffer must not be used by two
// goroutines at once.
type RouteBuffer struct {
	arena []Packet
	out   [][]Packet
}

// RouteBatchedVia is RouteBatchedVia with the output laid out in b.
func (b *RouteBuffer) RouteBatchedVia(t Transport, n int, packets []Packet, ledger *rounds.Ledger, tag string) ([][]Packet, RouteResult, error) {
	return routeBatchedVia(t, n, packets, ledger, tag, b)
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

// grow returns buf resized to length n, reallocating only when its capacity
// is short; the contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// canonicalOrder sorts every destination's packets by (source, payload) —
// the deterministic order Route, the reliable layer, and the transport-backed
// variants all promise, which is what makes their outputs interchangeable.
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

// BroadcastAll performs the one-round primitive in which every node
// announces one word to all others; it returns the announced values and
// charges one measured round. This is the "each node broadcasts its ID"
// step used when constructing product demand graphs (Theorem 3.3).
func BroadcastAll(n int, values []int64, ledger *rounds.Ledger, tag string) ([]int64, error) {
	if len(values) != n {
		return nil, fmt.Errorf("cc: %d values for %d nodes", len(values), n)
	}
	if ledger != nil {
		ledger.Add(tag, rounds.Measured, 1, "all-to-all broadcast, 1 round")
	}
	if mi := instrumentsFor(globalMetrics.Load()); mi != nil {
		mi.broadcasts.Inc()
		mi.routeRounds.Inc()
		mi.routeMessages.Add(int64(n) * int64(n-1))
		mi.routeWords.Add(int64(n) * int64(n-1))
	}
	return append([]int64(nil), values...), nil
}
