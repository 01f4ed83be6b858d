package cc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"testing"
)

// FuzzReliableFrameCodec fuzzes the reliable layer's frame format: any
// (src, dst, seq, payload) must survive encode/decode bit-exactly, and any
// single-bit corruption of the frame must be detected by the checksum.
func FuzzReliableFrameCodec(f *testing.F) {
	f.Add(0, 1, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(3, 3, 7, []byte{}) // zero-length self-send
	f.Add(200, 0, 1<<20, []byte{255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, src, dst, seq int, raw []byte) {
		if seq < 0 {
			seq = -seq
		}
		if seq < 0 { // math.MinInt negation overflow
			seq = 0
		}
		if len(raw) > 8*64 {
			raw = raw[:8*64]
		}
		payload := make([]int64, len(raw)/8)
		for i := range payload {
			payload[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		p := Packet{Src: src, Dst: dst, Data: payload}
		frame := encodeReliable(p, seq)
		gotSeq, gotPayload, ok := decodeReliable(Packet{Src: src, Dst: dst, Data: frame})
		if !ok {
			t.Fatalf("clean frame rejected: src=%d dst=%d seq=%d", src, dst, seq)
		}
		if gotSeq != int64(seq) {
			t.Fatalf("seq round trip: %d != %d", gotSeq, seq)
		}
		if len(gotPayload) != len(payload) {
			t.Fatalf("payload length: %d != %d", len(gotPayload), len(payload))
		}
		for i := range payload {
			if gotPayload[i] != payload[i] {
				t.Fatalf("payload word %d: %d != %d", i, gotPayload[i], payload[i])
			}
		}
		// Truncated frames are rejected, never sliced out of range.
		for cut := 0; cut < reliableHeaderWords && cut < len(frame); cut++ {
			if _, _, ok := decodeReliable(Packet{Src: src, Dst: dst, Data: frame[:cut]}); ok {
				t.Fatalf("truncated frame of %d words accepted", cut)
			}
		}
		// Single bit flips are detected.
		for w := 0; w < len(frame); w++ {
			bit := uint(seq+w) % 64
			frame[w] ^= 1 << bit
			if _, _, ok := decodeReliable(Packet{Src: src, Dst: dst, Data: frame}); ok {
				t.Fatalf("bit flip in word %d undetected", w)
			}
			frame[w] ^= 1 << bit
		}
	})
}

// FuzzRouteRoundTrip fuzzes the router end to end: an arbitrary byte string
// decodes to a packet set (in-range and out-of-range endpoints, zero-length
// payloads, self-sends, overloaded nodes), and Net.Route — in process, over
// a transport and under a lossy fault plan — must either reject the set
// (bad endpoints) or deliver exactly the input multiset, the reliable layer
// bit-identical to the clean one.
func FuzzRouteRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{0, 1, 1, 2, 2, 3})
	f.Add(uint8(3), uint8(3), []byte{0, 0, 0})  // self-send, zero payload
	f.Add(uint8(2), uint8(50), []byte{0, 7, 1}) // out-of-range destination
	f.Add(uint8(8), uint8(10), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, nRaw, seed uint8, raw []byte) {
		n := 2 + int(nRaw%7) // 2..8 nodes
		if len(raw) > 96 {
			raw = raw[:96]
		}
		var pkts []Packet
		valid := true
		for i := 0; i+1 < len(raw); i += 3 {
			src, dst := int(raw[i]), int(raw[i+1])
			// Map most packets into range, but let some stay wild so the
			// error path is exercised too.
			if src >= 2*n {
				src %= n
			}
			if dst >= 2*n {
				dst %= n
			}
			if src < 0 || src >= n || dst < 0 || dst >= n {
				valid = false
			}
			var data []int64
			if i+2 < len(raw) && raw[i+2]%3 != 0 { // every third packet: zero-length
				data = []int64{int64(raw[i+2]), int64(i)}
			}
			pkts = append(pkts, Packet{Src: src, Dst: dst, Data: data})
		}
		canon := func(out [][]Packet) []string {
			var s []string
			for d, inbox := range out {
				for _, p := range inbox {
					s = append(s, fmt.Sprintf("%d|%d|%v", d, p.Src, p.Data))
				}
			}
			sort.Strings(s)
			return s
		}
		want := make([]string, 0, len(pkts))
		for _, p := range pkts {
			want = append(want, fmt.Sprintf("%d|%d|%v", p.Dst, p.Src, p.Data))
		}
		sort.Strings(want)

		check := func(name string, out [][]Packet, err error) {
			if !valid {
				if !errors.Is(err, ErrBadRecipient) {
					t.Fatalf("%s on out-of-range endpoints: want ErrBadRecipient, got %v", name, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s rejected a valid set: %v", name, err)
			}
			got := canon(out)
			if len(got) != len(want) {
				t.Fatalf("%s delivered %d packets, want %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s multiset differs at %d: %q vs %q", name, i, got[i], want[i])
				}
			}
		}
		plan := &FaultPlan{Seed: uint64(seed), Drop: 0.1, Corrupt: 0.05, Duplicate: 0.05, Delay: 0.05}
		for name, net := range map[string]Net{
			"in process": {},
			"transport":  {Transport: &countingTransport{}},
			"fault plan": {Faults: plan},
		} {
			out, _, err := net.Route(n, pkts, "fuzz", nil)
			check(name, out, err)
		}
	})
}

// FuzzParseFaultPlan fuzzes the -faults spec parser: no input panics, and
// every accepted plan passes Validate, so no spec reaches the reliable
// layer with rates outside [0,1] or a retry bound that overflows its
// backoff.
func FuzzParseFaultPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFaultPlan(spec)
		if err != nil {
			if !errors.Is(err, ErrBadFaultPlan) {
				t.Fatalf("ParseFaultPlan(%q): untyped error %v", spec, err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParseFaultPlan(%q) accepted an invalid plan %+v: %v", spec, p, err)
		}
	})
}
