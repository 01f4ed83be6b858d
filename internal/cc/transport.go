package cc

// This file defines the delivery boundary of the *Via routing primitives
// (routevia.go). transportDeliver packs one call's packets into an Outbox
// and hands it to a Transport; the wire-codec round-trip in
// internal/transport and the multi-process TCP backend in
// internal/transport/tcp implement the same contract, so a solver — and
// the round ledger — cannot tell which medium carried its packets.
//
// Fault injection deliberately sits above the boundary: the reliable layer
// (reliable.go) applies its FaultPlan to whatever a transport delivered, so
// drop/corrupt/duplicate/delay semantics are uniform across backends and a
// faulty TCP run replays the in-process run bit for bit.

// Message is a message delivered to a node by a Transport. Data is owned by
// the transport and valid until its next Deliver call.
type Message struct {
	From int
	Data []int64
}

// OutMsg is one buffered send in an outbox: the payload lives in the
// outbox's arena at [Off, Off+Width).
type OutMsg struct {
	From, To   int32
	Off, Width int32
}

// Outbox is one sender block's output for a delivery: the send records plus
// the arena holding their payload words. Within an Outbox, Msgs appear in
// send order; across the slice passed to Deliver, blocks cover ascending
// disjoint source ranges.
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
// backends.
type DeliveryStats struct {
	// Messages is the number of logical messages delivered.
	Messages int64
	// Frames and FrameBytes count the encoded wire frames carrying them
	// (data frames only).
	Frames     int64
	FrameBytes int64
	// Retransmits and Acks are always zero: no backend retransmits or
	// acknowledges frames (the TCP backend relies on TCP's in-order delivery
	// and on supervision). They remain for readers that still report them.
	Retransmits int64
	Acks        int64
}

// Transport moves one delivery's outboxes to per-destination inboxes.
//
// The delivery contract, identical for every backend:
//
//   - inboxes[d] holds destination d's messages ordered by ascending From,
//     and messages sharing a From keep their send order;
//   - the returned slices are valid until the next Deliver call on the same
//     transport (backends may recycle buffers);
//   - Deliver is a synchronous barrier: when it returns, every message of
//     the delivery is accounted for.
//
// n is the logical node count of this delivery (destinations are 0..n-1); a
// transport serves successive calls with differing n. round tags the
// delivery's frames on the wire.
type Transport interface {
	Deliver(round, n int, out []Outbox) ([][]Message, DeliveryStats, error)
	// Close releases the backend's resources (worker processes, sockets).
	// The in-process backends are no-ops.
	Close() error
}
