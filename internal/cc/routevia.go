package cc

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"lapcc/internal/rounds"
)

// This file is the transport path of the routing primitives (net.go). In
// process, packets move as Go slices and rounds are charged from the relay
// schedule. Over a Transport the accounting is unchanged — the same
// admissibility checks, the same ledger charges, the same RouteResult — but
// every payload also goes through the transport, and the output is rebuilt
// from what came back, so with the TCP backend the bytes genuinely cross
// process boundaries and sockets. The canonical per-destination order makes
// the result bit-identical to the in-process computation; the differential
// suites pin exactly that.
//
// Charging and delivery are separate passes. A call first checks and
// charges every admissible batch of every step it carries, in order, as
// routing them one at a time would; then it ships the batches through the
// transport, consecutive batches sharing one Deliver call while it carries
// at most n² messages — one admissible batch's worth, which is all a
// barrier carried when each batch had its own — and at most
// sharedDeliveryBytes, so no merged wire frame nears the frame limit. So a
// route costs one barrier however many batches it needs, and
// Net.RouteSteps lets independent steps share that barrier as well.

// Step is one step of a multi-step routing call (Net.RouteSteps): a packet
// set, routed and charged under Tag exactly as its own Net.Route call would
// route and charge it.
type Step struct {
	Packets []Packet
	Tag     string
	// Buf, if non-nil, holds the step's output, as Net.Route lays it out;
	// nil gives a fresh output. Two steps of one call must not share a
	// buffer.
	Buf *RouteBuffer

	// Out and Result are what Net.Route returns for the step alone, set by
	// the call.
	Out    [][]Packet
	Result RouteResult
}

// sharedDeliveryBytes caps the estimated wire size (unit.wireBytes) of a
// delivery that carries more than one admissible batch. Every wire frame
// of such a delivery holds a subset of its messages, so the cap keeps
// merged frames far below the 16 MiB frame limit of the wire backends,
// while a lone batch ships alone whatever its size, as it always has. A
// delivery this large spends far longer moving bytes than crossing its
// barrier, so a larger cap would save nothing.
const sharedDeliveryBytes = 1 << 20

// routeSteps is Net.RouteSteps over t without a fault plan: every step is
// charged in order, then all of them ship on shared delivery barriers.
func routeSteps(t Transport, n int, steps []Step, ledger *rounds.Ledger) error {
	s := stepsPool.Get().(*stepsScratch)
	defer s.release()
	for i := range steps {
		st := &steps[i]
		res, err := s.charge(n, i, st.Packets, ledger, st.Tag)
		st.Result = res
		if err != nil {
			return stepError(i, st.Tag, err)
		}
	}
	if err := s.deliver(t, n, steps); err != nil {
		return fmt.Errorf("cc: transport route %s: %w", stepTags(steps), err)
	}
	for i := range steps {
		steps[i].Out = s.outs[i]
	}
	return nil
}

// stepError names the step a routing error came from.
func stepError(i int, tag string, err error) error {
	return fmt.Errorf("cc: route step %d %q: %w", i, tag, err)
}

// stepTags names the steps of a failed delivery: the tags of the non-empty
// steps, quoted and joined by "+", a run of equal tags named once.
func stepTags(steps []Step) string {
	var b strings.Builder
	prev := ""
	for _, st := range steps {
		if len(st.Packets) == 0 || (b.Len() > 0 && st.Tag == prev) {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte('+')
		}
		b.WriteString(strconv.Quote(st.Tag))
		prev = st.Tag
	}
	return b.String()
}

// routeVia is Net.Route over t without a fault plan, with the output laid
// out in buf (fresh when buf is nil): the one-step case of routeSteps. It
// keeps packets out of the pooled scratch, so a caller's packet slice does
// not escape to the heap.
func routeVia(t Transport, n int, packets []Packet, ledger *rounds.Ledger, tag string, buf *RouteBuffer) ([][]Packet, RouteResult, error) {
	s := stepsPool.Get().(*stepsScratch)
	defer s.release()
	res, err := s.charge(n, 0, packets, ledger, tag)
	if err != nil {
		return nil, res, err
	}
	steps := [1]Step{{Packets: packets, Buf: buf}}
	if err := s.deliver(t, n, steps[:]); err != nil {
		return nil, res, fmt.Errorf("cc: transport route %q: %w", tag, err)
	}
	return s.outs[0], res, nil
}

// charge checks one step, splits it into admissible batches, charges each
// and appends them to s.units for delivery. It only charges: over a
// transport the delivery is the output.
func (s *stepsScratch) charge(n, step int, packets []Packet, ledger *rounds.Ledger, tag string) (RouteResult, error) {
	first := len(s.units)
	err := s.split(n, step, packets)
	var agg RouteResult
	for _, u := range s.units[first:] {
		// A step that is one batch has its counts in split's counters.
		var src, dst []int
		if !u.split {
			src, dst = s.srcCount, s.dstCount
		}
		_, res := s.relay.routeCore(n, s.batch(u, packets), src, dst, ledger, tag, nil, false)
		agg.add(res)
	}
	return agg, err
}

// deliver ships s.units through t and lays step i's delivery out in
// s.outs[i] as its own call would return it: out[d] holds the step's
// batches in order, each batch's packets in canonical order, and every
// payload is copied into the step's word arena, so no output aliases the
// transport's buffers once the call returns. Consecutive units share a
// Deliver call while it carries at most n² messages and
// sharedDeliveryBytes; a unit that would take the delivery past either
// starts the next one. deliver only reads the steps' Packets and Buf.
func (s *stepsScratch) deliver(t Transport, n int, steps []Step) error {
	s.layout(n, steps)
	for lo := 0; lo < len(s.units); {
		hi := lo + 1
		m, size := s.units[lo].msgs(), s.units[lo].wireBytes()
		for ; hi < len(s.units); hi++ {
			u := s.units[hi]
			if m+u.msgs() > n*n || size+u.wireBytes() > sharedDeliveryBytes {
				break
			}
			m, size = m+u.msgs(), size+u.wireBytes()
		}
		if err := s.deliverUnits(t, n, steps, lo, hi, m); err != nil {
			return err
		}
		lo = hi
	}
	u := 0
	for i := range steps {
		out, first := s.outs[i], u
		for u < len(s.units) && s.units[u].step == i {
			u++
		}
		for d := range out {
			lo := 0
			for v := first; v < u; v++ {
				hi := s.cur[v*n+d]
				slices.SortFunc(out[d][lo:hi], comparePackets)
				lo = hi
			}
		}
	}
	return nil
}

// layout sizes every step's output and payload arena from its units, and
// points each unit's cursor at its first slot of every destination: a
// step's out[d] holds its first batch's packets to d, then its second's.
// It also totals every unit's payload words.
func (s *stepsScratch) layout(n int, steps []Step) {
	cur := grow(s.cur, len(s.units)*n)
	s.cur = cur
	clear(cur)
	for u := range s.units {
		un := &s.units[u]
		row := cur[u*n : u*n+n]
		un.words = 0
		for _, p := range s.batch(*un, steps[un.step].Packets) {
			row[p.Dst]++
			un.words += len(p.Data)
		}
	}
	total := grow(s.total, n)
	s.total = total
	s.outs = grow(s.outs, len(steps))
	s.stepWords, s.wordOff = grow(s.stepWords, len(steps)), grow(s.wordOff, len(steps))
	u := 0
	for i := range steps {
		clear(total)
		words := 0
		for ; u < len(s.units) && s.units[u].step == i; u++ {
			row := cur[u*n : u*n+n]
			for d, c := range row {
				row[d] = total[d]
				total[d] += c
			}
			words += s.units[u].words
		}
		buf := steps[i].Buf
		out := buf.output(n, total)
		for d, c := range total {
			out[d] = out[d][:c] // filled slot by slot as messages arrive
		}
		s.outs[i] = out
		s.stepWords[i], s.wordOff[i] = buf.wordArena(words), 0
	}
}

// deliverUnits ships units lo..hi-1, m packets in all, as one delivery
// barrier and files every delivered message into its step's output. A
// delivery of one unit — most calls — is filed straight from the inboxes,
// destination by destination; a shared one is first matched message by
// message against the outbox to find each message's unit.
func (s *stepsScratch) deliverUnits(t Transport, n int, steps []Step, lo, hi, m int) error {
	shared := hi-lo > 1
	// Stable counting sort by source: the transport contract wants
	// ascending source order across the outbox. dst counts what every
	// destination must receive.
	src, dst := grow(s.srcStart, n+1), grow(s.dstStart, n+1)
	s.srcStart, s.dstStart = src, dst
	clear(src)
	clear(dst)
	words := 0
	for _, un := range s.units[lo:hi] {
		for _, p := range s.batch(un, steps[un.step].Packets) {
			src[p.Src+1]++
			dst[p.Dst+1]++
		}
		words += un.words
	}
	for v := 0; v < n; v++ {
		src[v+1] += src[v]
		dst[v+1] += dst[v]
	}
	msgs := grow(s.msgs, m)
	arena := grow(s.words, words)[:0]
	var unitOf []int32
	if shared {
		unitOf = grow(s.unitOf, m)
		s.unitOf = unitOf
	}
	for u := lo; u < hi; u++ {
		un := s.units[u]
		for _, p := range s.batch(un, steps[un.step].Packets) {
			pos := src[p.Src]
			src[p.Src]++
			msgs[pos] = OutMsg{From: int32(p.Src), To: int32(p.Dst), Off: int32(len(arena)), Width: int32(len(p.Data))}
			if shared {
				unitOf[pos] = int32(u)
			}
			arena = append(arena, p.Data...)
		}
	}
	s.msgs, s.words = msgs, arena
	var byDst []int32
	if shared {
		// Group the outbox positions by destination, stably. The transport
		// hands destination d its messages in ascending source order and,
		// per source, in send order — exactly the order of d's positions
		// here — so the k-th message d receives is the one at d's k-th
		// position. src, spent by the sort above, is the grouping cursor.
		byDst = grow(s.byDst, m)
		s.byDst = byDst
		copy(src, dst)
		for pos, om := range msgs {
			byDst[src[om.To]] = int32(pos)
			src[om.To]++
		}
	}

	s.outbox[0] = Outbox{Msgs: msgs, Arena: arena}
	inb, _, err := t.Deliver(0, n, s.outbox[:])
	s.outbox[0] = Outbox{}
	if err != nil {
		return err
	}
	if len(inb) != n {
		return fmt.Errorf("%d inboxes for %d nodes", len(inb), n)
	}
	for d := 0; d < n; d++ {
		if len(inb[d]) != dst[d+1]-dst[d] {
			return fmt.Errorf("node %d received %d messages, %d were sent", d, len(inb[d]), dst[d+1]-dst[d])
		}
	}
	if !shared {
		// All of d's messages are the unit's, in the order its output
		// window wants them.
		i := s.units[lo].step
		out, cur := s.outs[i], s.cur[lo*n:lo*n+n]
		words, off := s.stepWords[i], s.wordOff[i]
		for d, inbox := range inb {
			slots := out[d][cur[d] : cur[d]+len(inbox)]
			for k, msg := range inbox {
				var data []int64
				if w := len(msg.Data); w > 0 {
					if off+w > len(words) {
						return fmt.Errorf("node %d received more payload words than were sent", d)
					}
					data = words[off : off+w : off+w]
					copy(data, msg.Data)
					off += w
				}
				slots[k] = Packet{Src: msg.From, Dst: d, Data: data}
			}
			cur[d] += len(inbox)
		}
		s.wordOff[i] = off
		return nil
	}
	for d, inbox := range inb {
		for k, msg := range inbox {
			pos := byDst[dst[d]+k]
			if om := msgs[pos]; msg.From != int(om.From) || len(msg.Data) != int(om.Width) {
				return fmt.Errorf("node %d received message %d from %d with %d words, sent from %d with %d",
					d, k, msg.From, len(msg.Data), om.From, om.Width)
			}
			u := int(unitOf[pos])
			i := s.units[u].step
			var data []int64
			if w := len(msg.Data); w > 0 {
				off := s.wordOff[i]
				data = s.stepWords[i][off : off+w : off+w]
				copy(data, msg.Data)
				s.wordOff[i] = off + w
			}
			slot := &s.cur[u*n+d]
			s.outs[i][d][*slot] = Packet{Src: msg.From, Dst: d, Data: data}
			*slot++
		}
	}
	return nil
}

// broadcastVia ships every node's word to the n-1 others through t as one
// delivery and writes every word that arrives into got, at its sender.
func broadcastVia(t Transport, n int, values, got []int64) error {
	pkts := make([]Packet, 0, n*(n-1))
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if dst != src {
				pkts = append(pkts, Packet{Src: src, Dst: dst, Data: values[src : src+1]})
			}
		}
	}
	steps := [1]Step{{Packets: pkts}}
	s := stepsPool.Get().(*stepsScratch)
	defer s.release()
	if len(pkts) > 0 {
		s.units = append(s.units, unit{hi: len(pkts)})
	}
	if err := s.deliver(t, n, steps[:]); err != nil {
		return err
	}
	for _, inbox := range s.outs[0] {
		for _, p := range inbox {
			got[p.Src] = p.Data[0]
		}
	}
	return nil
}
