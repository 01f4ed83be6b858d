package transport

import (
	"fmt"
	"sync"

	"lapcc/internal/cc"
)

// ChunkMsgs bounds the messages per FrameData chunk, in the Mem backend and
// on the TCP mesh alike, so one frame stays well under MaxFrameBytes at any
// legal message width and large rounds exercise the multi-chunk path.
const ChunkMsgs = 1024

// Mem is the in-process wire backend: every Deliver encodes the round's
// messages into FrameData chunks, decodes them back, and assembles the
// inboxes from the decoded copies. No sockets are involved, so the codec —
// the part of the TCP backend that handles real data — runs under the race
// detector and the fuzzers at full speed. Delivered payloads are freshly
// allocated by the decoder and never recycled.
//
// Mem is safe for concurrent Deliver calls (they serialize on an internal
// lock, matching the TCP coordinator's barrier semantics).
type Mem struct {
	mu  sync.Mutex
	buf []byte // recycled encode buffer

	stats cc.DeliveryStats // cumulative, for tests and metrics
}

// NewMem returns a Mem backend ready for delivery.
func NewMem() *Mem { return &Mem{} }

// Deliver implements cc.Transport by round-tripping every message through
// the frame codec.
func (m *Mem) Deliver(round, n int, out []cc.Outbox) ([][]cc.Message, cc.DeliveryStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	// Count per-destination totals up front for exact inbox sizing, and
	// validate recipients before anything is encoded.
	dc := make([]int, n)
	total := 0
	for _, ob := range out {
		for _, om := range ob.Msgs {
			if om.To < 0 || int(om.To) >= n {
				return nil, cc.DeliveryStats{}, fmt.Errorf("transport: recipient %d out of range (n=%d)", om.To, n)
			}
			dc[om.To]++
			total++
		}
	}

	// Encode in outbox order (= ascending source order per the transport
	// contract) as chunked data frames.
	buf := m.buf[:0]
	var frames int64
	chunk := make([]Msg, 0, ChunkMsgs)
	var seq uint32
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		var err error
		buf, err = Append(buf, &Frame{
			Type: FrameData, Round: uint64(round), Seq: seq, Total: 0, Msgs: chunk,
		})
		if err != nil {
			return err
		}
		frames++
		seq++
		chunk = chunk[:0]
		return nil
	}
	for _, ob := range out {
		for _, om := range ob.Msgs {
			chunk = append(chunk, Msg{From: om.From, To: om.To, Data: ob.Data(om)})
			if len(chunk) == ChunkMsgs {
				if err := flush(); err != nil {
					return nil, cc.DeliveryStats{}, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, cc.DeliveryStats{}, err
	}
	m.buf = buf

	// Decode the byte stream back and assemble the inboxes. Chunks decode
	// in encode order, so per destination the messages arrive in ascending
	// source order, as the transport contract prescribes.
	inboxes := make([][]cc.Message, n)
	for d := 0; d < n; d++ {
		if dc[d] > 0 {
			inboxes[d] = make([]cc.Message, 0, dc[d])
		}
	}
	decoded := 0
	for off := 0; off < len(buf); {
		f, consumed, err := Decode(buf[off:])
		if err != nil {
			return nil, cc.DeliveryStats{}, fmt.Errorf("transport: decoding round %d at byte %d: %w", round, off, err)
		}
		off += consumed
		if f.Type != FrameData || f.Round != uint64(round) {
			return nil, cc.DeliveryStats{}, fmt.Errorf("transport: unexpected frame type %d in round %d", f.Type, round)
		}
		for _, wm := range f.Msgs {
			if wm.To < 0 || int(wm.To) >= n {
				return nil, cc.DeliveryStats{}, fmt.Errorf("transport: decoded recipient %d out of range", wm.To)
			}
			inboxes[wm.To] = append(inboxes[wm.To], cc.Message{From: int(wm.From), Data: wm.Data})
			decoded++
		}
	}
	if decoded != total {
		return nil, cc.DeliveryStats{}, fmt.Errorf("transport: %d messages encoded, %d decoded", total, decoded)
	}
	st := cc.DeliveryStats{Messages: int64(total), Frames: frames, FrameBytes: int64(len(buf))}
	m.stats.Messages += st.Messages
	m.stats.Frames += st.Frames
	m.stats.FrameBytes += st.FrameBytes
	return inboxes, st, nil
}

// Close implements cc.Transport; Mem holds no external resources.
func (m *Mem) Close() error { return nil }

// Stats returns the cumulative delivery counters across all rounds.
func (m *Mem) Stats() cc.DeliveryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
