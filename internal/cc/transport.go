package cc

import "fmt"

// This file defines the engine's delivery boundary. Everything between
// "workers fill outboxes" and "inboxes are populated for round r+1" goes
// through a Transport; the default localTransport is the historical
// in-process counting-sort merge, bit-identical to the pre-interface engine
// and allocation-free in steady state. External transports (the wire-codec
// round-trip in internal/transport and the multi-process TCP backend in
// internal/transport/tcp) implement the same contract, so a program — and
// the round ledger — cannot tell which medium carried its messages.
//
// Fault injection deliberately sits above the boundary: the engine applies
// its FaultPlan to whatever a transport delivered (see injectFaults in
// engine.go), so drop/corrupt/delay/stall/crash semantics are uniform across
// backends and a faulty TCP run replays the in-process run bit for bit.

// OutMsg is one buffered send in a worker outbox: the payload lives in the
// outbox's arena at [Off, Off+Width).
type OutMsg struct {
	From, To   int32
	Off, Width int32
}

// Outbox is one sender block's round output: the send records plus the arena
// holding their payload words. Within an Outbox, Msgs appear in send order;
// across the slice passed to Deliver, blocks cover ascending disjoint source
// ranges (the engine's workers own contiguous node blocks).
type Outbox struct {
	Msgs  []OutMsg
	Arena []int64
}

// Data returns the payload of m, aliasing the outbox arena.
func (ob Outbox) Data(m OutMsg) []int64 {
	return ob.Arena[m.Off : m.Off+m.Width : m.Off+m.Width]
}

// DeliveryStats reports what one Deliver call moved, including any wire-level
// overhead the backend paid. The logical message count is identical across
// backends; the frame counters are zero for the in-process merge.
type DeliveryStats struct {
	// Messages is the number of logical messages delivered.
	Messages int64
	// Frames and FrameBytes count the encoded wire frames carrying them
	// (data frames only; zero when no codec is involved).
	Frames     int64
	FrameBytes int64
	// Retransmits and Acks are always zero: no backend retransmits or
	// acknowledges frames (the TCP backend relies on TCP's in-order delivery
	// and on supervision). They remain for readers that still report them.
	Retransmits int64
	Acks        int64
}

// Transport moves one round's outboxes to the next round's inboxes.
//
// The delivery contract, identical for every backend:
//
//   - inboxes[d] holds destination d's messages ordered by ascending From,
//     and messages sharing a From keep their send order (the model sends at
//     most one message per ordered pair per engine round, but routed packet
//     sets may carry several);
//   - the returned slices are valid until the next Deliver call on the same
//     transport (backends may recycle buffers; the in-process backend
//     aliases sender arenas that are rewritten one round later);
//   - Deliver is a synchronous barrier: when it returns, every message of
//     round `round` is accounted for.
//
// n is the logical node count of this delivery (destinations are 0..n-1); a
// transport serves successive calls with differing n.
type Transport interface {
	Deliver(round, n int, out []Outbox) ([][]Message, DeliveryStats, error)
	// Close releases the backend's resources (worker processes, sockets).
	// The in-process backends are no-ops.
	Close() error
}

// localTransport is the default in-process backend: the engine's historical
// counting-sort merge over recycled buffers. It is bound to one engine (its
// scratch is the engine's) and delivers with zero allocations in steady
// state.
type localTransport struct {
	e *Engine
}

func (t *localTransport) Deliver(_ int, n int, out []Outbox) ([][]Message, DeliveryStats, error) {
	e := t.e
	if n != e.n {
		return nil, DeliveryStats{}, fmt.Errorf("cc: local transport bound to n=%d, delivery wants n=%d", e.n, n)
	}
	dc := e.dstCount
	for i := range dc {
		dc[i] = 0
	}
	total := 0
	for _, ob := range out {
		total += len(ob.Msgs)
		for i := range ob.Msgs {
			dc[ob.Msgs[i].To]++
		}
	}
	if cap(e.inboxFlat) < total {
		e.inboxFlat = make([]Message, total)
	}
	flat := e.inboxFlat[:total]
	off := e.dstOff
	sum := 0
	for d := 0; d < n; d++ {
		off[d] = sum
		sum += dc[d]
	}
	off[n] = sum
	for _, ob := range out {
		for _, m := range ob.Msgs {
			p := off[m.To]
			off[m.To] = p + 1
			flat[p] = Message{From: int(m.From), Data: ob.Arena[m.Off : m.Off+m.Width : m.Off+m.Width]}
		}
	}
	sum = 0
	for d := 0; d < n; d++ {
		e.inboxes[d] = flat[sum : sum+dc[d] : sum+dc[d]]
		sum += dc[d]
	}
	e.inboxFlat = flat
	return e.inboxes, DeliveryStats{Messages: int64(total)}, nil
}

func (t *localTransport) Close() error { return nil }

// SetTransport installs the delivery backend for subsequent Run calls; nil
// restores the default in-process merge. The engine does not own the
// transport: callers that install an external backend close it themselves.
// All backends deliver bit-identically (same inboxes, same order, same round
// and fault accounting); they differ only in which medium carries the bytes.
func (e *Engine) SetTransport(t Transport) {
	e.external = t
}

// Transport returns the installed external transport (nil when the engine is
// on the default in-process merge).
func (e *Engine) Transport() Transport { return e.external }
