package transport

import (
	"fmt"

	"lapcc/internal/cc"
)

// CountSends checks every send's endpoints against the node count n and
// counts the sends per destination into dc (length n, cleared here). It
// returns the total, or an error naming the first endpoint out of range.
func CountSends(n int, out []cc.Outbox, dc []int) (int, error) {
	clear(dc)
	total := 0
	for _, ob := range out {
		for _, om := range ob.Msgs {
			if om.From < 0 || int(om.From) >= n {
				return 0, fmt.Errorf("transport: sender %d out of range (n=%d)", om.From, n)
			}
			if om.To < 0 || int(om.To) >= n {
				return 0, fmt.Errorf("transport: recipient %d out of range (n=%d)", om.To, n)
			}
			dc[om.To]++
			total++
		}
	}
	return total, nil
}

// Inboxes lays out a delivery's per-destination inboxes in one message
// table that it reuses from delivery to delivery, so a layout is valid
// until the next Layout call, as the cc.Transport contract allows.
type Inboxes struct {
	flat  []cc.Message
	boxes [][]cc.Message
}

// Layout returns len(count) empty inboxes with room for count[d] messages
// at destination d. Each inbox is a window of the table capped at its
// count, so filling it by append never moves it, and an append past the
// count reallocates instead of overwriting the next inbox. A destination
// with no messages gets nil.
func (ib *Inboxes) Layout(count []int) [][]cc.Message {
	total := 0
	for _, c := range count {
		total += c
	}
	if cap(ib.flat) < total {
		ib.flat = make([]cc.Message, total)
	}
	if cap(ib.boxes) < len(count) {
		ib.boxes = make([][]cc.Message, len(count))
	}
	boxes := ib.boxes[:len(count)]
	off := 0
	for d, c := range count {
		if c == 0 {
			boxes[d] = nil
			continue
		}
		boxes[d] = ib.flat[off : off : off+c]
		off += c
	}
	return boxes
}
