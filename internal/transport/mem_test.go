package transport

import (
	"slices"
	"sort"
	"testing"

	"lapcc/internal/cc"
)

// mix is a tiny deterministic hash for building pseudo-random but
// repeatable schedules.
func mix(vals ...int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= uint64(v) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	return h
}

// TestMemDeliver: every round of a seeded schedule, split across one to
// three contiguous source-block outboxes, comes back through the wire codec
// exactly as a stable sort of its messages by source, and the wire stats
// are recorded.
func TestMemDeliver(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		n := []int{3, 6, 11, 17, 24}[seed-1]
		m := NewMem()
		for r := 0; r < int(4+mix(seed)%4); r++ {
			// Each source sends zero to three messages of zero to three
			// words, to any node including itself.
			var out []cc.Outbox
			type sent struct {
				to int32
				m  cc.Message
			}
			var all []sent
			blocks := 1 + int(mix(seed, int64(r))%3)
			for b := 0; b < blocks; b++ {
				var ob cc.Outbox
				for v := b * n / blocks; v < (b+1)*n/blocks; v++ {
					h := mix(seed, int64(r), int64(v))
					for k := 0; k < int(h%4); k++ {
						to := int32(mix(seed, int64(r), int64(v), int64(k)) % uint64(n))
						om := cc.OutMsg{From: int32(v), To: to, Off: int32(len(ob.Arena)), Width: int32((h >> (8 + 2*k)) % 4)}
						for w := int32(0); w < om.Width; w++ {
							ob.Arena = append(ob.Arena, int64(mix(seed, int64(r), int64(v), int64(k), int64(w))))
						}
						ob.Msgs = append(ob.Msgs, om)
					}
				}
				out = append(out, ob)
				for _, om := range ob.Msgs {
					all = append(all, sent{om.To, cc.Message{From: int(om.From), Data: ob.Data(om)}})
				}
			}
			sort.SliceStable(all, func(i, j int) bool { return all[i].m.From < all[j].m.From })
			want := make([][]cc.Message, n)
			for _, s := range all {
				want[s.to] = append(want[s.to], s.m)
			}
			got, st, err := m.Deliver(r, n, out)
			if err != nil {
				t.Fatalf("n=%d seed=%d round %d: %v", n, seed, r, err)
			}
			if st.Messages != int64(len(all)) {
				t.Fatalf("n=%d seed=%d round %d: delivered %d messages, sent %d", n, seed, r, st.Messages, len(all))
			}
			for d := range want {
				if !slices.EqualFunc(got[d], want[d], func(a, b cc.Message) bool {
					return a.From == b.From && slices.Equal(a.Data, b.Data)
				}) {
					t.Fatalf("n=%d seed=%d round %d: inbox %d diverges\nwant %v\ngot  %v", n, seed, r, d, want[d], got[d])
				}
			}
		}
		if st := m.Stats(); st.Messages == 0 || st.Frames == 0 || st.FrameBytes == 0 {
			t.Fatalf("n=%d seed=%d: wire stats not recorded: %+v", n, seed, st)
		}
	}
}

// TestMemRejectsBadRecipient: recipient validation happens before encoding.
func TestMemRejectsBadRecipient(t *testing.T) {
	m := NewMem()
	out := []cc.Outbox{{Msgs: []cc.OutMsg{{From: 0, To: 9, Width: 0}}}}
	if _, _, err := m.Deliver(0, 3, out); err == nil {
		t.Fatal("out-of-range recipient accepted")
	}
}
