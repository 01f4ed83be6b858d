package cc

import (
	"fmt"

	"lapcc/internal/rounds"
)

// This file implements the reliable delivery layer, which Net's primitives
// run under a fault plan: Lenzen routing wrapped in a sequence-numbered,
// checksummed, acknowledged retransmission protocol that restores the
// lossless-clique delivery guarantee on top of a lossy FaultPlan. The
// protocol is the classical stop-and-wait-per-wave scheme:
//
//	wave 0: route every packet, each framed as [seq, checksum, payload...];
//	        receivers discard frames whose checksum fails (corruption) and
//	        deduplicate by sequence number, then acknowledge in one round;
//	wave w: wait 2^(w-1) backoff rounds, then retransmit exactly the
//	        unacknowledged packets.
//
// Acknowledgements themselves ride the faulty network: a lost ack causes a
// spurious retransmission that the receiver's dedup table absorbs. After
// FaultPlan.MaxRetries retransmission waves with packets still outstanding
// the protocol gives up with ErrDeliveryFailed.
//
// Because retries continue until every packet is delivered exactly once and
// the final per-destination order is canonical, the delivered multiset —
// and therefore any algorithm output computed from it — is bit-identical to
// a clean run; only the round cost grows. The extra rounds are recorded
// under the derived tags "<tag>-ack", "<tag>-retry", and "<tag>-backoff",
// so ledger reports separate protocol overhead from useful work.

// ReliableResult reports how a reliable routing invocation went.
type ReliableResult struct {
	// RouteResult aggregates the underlying routing invocations of all
	// waves (the initial attempt and every retransmission).
	RouteResult
	// Attempts is the number of transmission waves executed (1 = no
	// retransmission was needed).
	Attempts int
	// Retransmitted counts packet retransmissions (sum over retry waves of
	// the packets resent).
	Retransmitted int64
	// AckRounds and BackoffRounds are the protocol-overhead rounds charged
	// on top of the routing rounds.
	AckRounds     int64
	BackoffRounds int64
	// Faults counts the injected message faults the protocol absorbed
	// (including lost acknowledgements, which count as Dropped).
	Faults FaultStats
}

// Per-call salt for acknowledgement fates (see faults.go for the others).
const saltAck = 0x3c79ac49

// reliable header layout: word 0 = sequence number, word 1 = checksum.
const reliableHeaderWords = 2

// reliableChecksum covers the frame's routing envelope, sequence number,
// and payload, so a bit flip anywhere in the frame is detected.
func reliableChecksum(src, dst int, seq int64, payload []int64) int64 {
	h := splitmix64(0x8f1bbcdc ^ uint64(src)<<32 ^ uint64(dst))
	h = splitmix64(h ^ uint64(seq))
	for _, w := range payload {
		h = splitmix64(h ^ uint64(w))
	}
	return int64(h >> 1) // keep it non-negative for readability in dumps
}

// encodeReliable frames packet p with sequence number seq.
func encodeReliable(p Packet, seq int) []int64 {
	data := make([]int64, reliableHeaderWords+len(p.Data))
	data[0] = int64(seq)
	data[1] = reliableChecksum(p.Src, p.Dst, int64(seq), p.Data)
	copy(data[reliableHeaderWords:], p.Data)
	return data
}

// decodeReliable validates a received frame and returns its sequence number
// and payload (aliasing the frame's backing array). ok is false when the
// frame is malformed or fails its checksum.
func decodeReliable(p Packet) (seq int64, payload []int64, ok bool) {
	if len(p.Data) < reliableHeaderWords {
		return 0, nil, false
	}
	seq = p.Data[0]
	payload = p.Data[reliableHeaderWords:]
	if p.Data[1] != reliableChecksum(p.Src, p.Dst, seq, payload) {
		return 0, nil, false
	}
	return seq, payload, true
}

// reliableDeliver is Route under net's fault plan, which must be able to
// fault messages: every wave is a clean batched route over net's transport,
// and the plan's fates are applied to what it delivered.
func reliableDeliver(net Net, n int, packets []Packet, tag string) ([][]Packet, ReliableResult, error) {
	plan, ledger := net.Faults, net.Ledger
	var agg ReliableResult
	if err := plan.Validate(); err != nil {
		return nil, agg, err
	}

	out := make([][]Packet, n)
	accepted := make([]bool, len(packets)) // receiver-side dedup by sequence number
	acked := make([]bool, len(packets))    // sender-side: stop retransmitting
	pending := make([]int, len(packets))
	for i := range pending {
		pending[i] = i
	}
	wire := make([]Packet, 0, len(packets))
	maxRetries := plan.maxRetries()

	for wave := 0; len(pending) > 0; wave++ {
		if wave > maxRetries {
			return nil, agg, fmt.Errorf("%w: %d of %d packets undelivered after %d retries (%s)",
				ErrDeliveryFailed, len(pending), len(packets), maxRetries, tag)
		}
		waveTag := tag
		if wave > 0 {
			// Exponential backoff: the sender waits out 2^(wave-1) silent
			// rounds before retransmitting; the clique is synchronized, so
			// the wait is itself rounds on the clock.
			backoff := int64(1) << uint(wave-1)
			agg.BackoffRounds += backoff
			if ledger != nil {
				ledger.Add(tag+"-backoff", rounds.Measured, backoff, "reliable-delivery retransmit backoff")
			}
			agg.Retransmitted += int64(len(pending))
			waveTag = tag + "-retry"
		}
		agg.Attempts++

		wire = wire[:0]
		for _, idx := range pending {
			wire = append(wire, Packet{
				Src:  packets[idx].Src,
				Dst:  packets[idx].Dst,
				Data: encodeReliable(packets[idx], idx),
			})
		}
		delivered, res, err := net.routeClean(n, wire, waveTag, nil)
		if err != nil {
			return nil, agg, err
		}
		agg.add(res)

		// Apply the plan's fates to this wave's transmissions. Every fate is
		// a pure function of (sequence number, wave), so the replay is
		// deterministic regardless of routing internals.
		for d := 0; d < n; d++ {
			for _, frame := range delivered[d] {
				if len(frame.Data) < reliableHeaderWords {
					continue
				}
				seq := int(frame.Data[0])
				if seq < 0 || seq >= len(packets) {
					continue
				}
				kind, _ := plan.packetFate(seq, wave)
				copies := 1
				switch kind {
				case faultDrop:
					agg.Faults.Dropped++
					continue
				case faultDelay:
					// Arrived after the acknowledgement deadline: for the
					// protocol this wave, indistinguishable from a drop (the
					// dedup table absorbs the late copy).
					agg.Faults.Delayed++
					continue
				case faultCorrupt:
					agg.Faults.Corrupted++
					h := int(plan.hash(saltCorrupt, uint64(seq), uint64(wave), 0) >> 1)
					frame.Data[h%len(frame.Data)] ^= 1 << uint((h/len(frame.Data))%64)
				case faultDuplicate:
					agg.Faults.Duplicated++
					copies = 2
				}
				for c := 0; c < copies; c++ {
					gotSeq, payload, ok := decodeReliable(frame)
					if !ok {
						continue // checksum failure: receiver discards, no ack
					}
					idx := int(gotSeq)
					if idx < 0 || idx >= len(packets) || accepted[idx] {
						continue // duplicate or stale: dedup absorbs it
					}
					accepted[idx] = true
					out[packets[idx].Dst] = append(out[packets[idx].Dst], Packet{
						Src:  packets[idx].Src,
						Dst:  packets[idx].Dst,
						Data: payload,
					})
				}
			}
		}

		// Acknowledgement round: each receiver reports the sequence numbers
		// it accepted. Acks are tiny (a bitmap over the sender's in-flight
		// window) and fit one clique round, but they ride the same faulty
		// network — a lost ack leaves the packet unacked and triggers a
		// spurious retransmission that dedup absorbs.
		agg.AckRounds++
		if ledger != nil {
			ledger.Add(tag+"-ack", rounds.Measured, 1, "reliable-delivery acknowledgement round")
		}
		next := pending[:0]
		for _, idx := range pending {
			ackKind, _ := plan.fate(saltAck, uint64(idx), uint64(wave), 0)
			ackLost := ackKind == faultDrop || ackKind == faultDelay
			if accepted[idx] && !ackLost {
				acked[idx] = true
				continue
			}
			if accepted[idx] && ackLost {
				agg.Faults.Dropped++ // the ack, not the data, was lost
			}
			next = append(next, idx)
		}
		pending = next
	}

	// Canonical per-destination order: by source, then payload. With every
	// packet delivered exactly once this is, for a set that is one
	// admissible batch, exactly a clean Route's output.
	canonicalOrder(out)
	return out, agg, nil
}
