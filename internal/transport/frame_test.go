package transport

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/iotest"
)

// sampleFrames covers every frame type with representative field content.
func sampleFrames() []*Frame {
	return []*Frame{
		{Type: FrameHello, Node: 2, Addr: "127.0.0.1:4242"},
		{Type: FramePeers, Addrs: []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}},
		{Type: FrameReady, Node: 0},
		{Type: FrameRound, Round: 7, Msgs: []Msg{
			{From: 0, To: 3, Data: []int64{1, -2, 1 << 62}},
			{From: 1, To: 0, Data: nil},
			{From: 2, To: 2, Data: []int64{-9}},
		}},
		{Type: FrameData, Round: 9, Node: 1, Seq: 2, Total: 5, Msgs: []Msg{
			{From: 5, To: 6, Data: []int64{42}},
		}},
		{Type: FrameData, Round: 10, Node: 2, Seq: 0, Total: 1}, // empty chunk
		{Type: FrameRound, Round: 8, Flags: RoundFlagTrace, Msgs: []Msg{{From: 4, To: 1, Data: []int64{7}}}},
		{Type: FrameTrace, Round: 8, Node: 1, Blob: []byte{0x01, 0x00, 0xff, 0x7f}},
		{Type: FrameInbox, Round: 9, Node: 2, Msgs: []Msg{{From: 0, To: 2, Data: []int64{3, 4}}},
			Stats: WireStats{Frames: 12, FrameBytes: 480}},
		{Type: FrameShutdown},
		{Type: FrameError, Addr: "node 3: mesh bootstrap failed"},
		{Type: FramePing},
		{Type: FramePong, Node: 1},
	}
}

// normalize zeroes the fields a frame type does not encode, so decoded
// frames can be compared against the originals.
func normalize(f *Frame) *Frame {
	c := *f
	switch f.Type {
	case FrameReady, FrameShutdown, FramePing, FramePong:
		c = Frame{Type: f.Type}
	}
	return &c
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		buf, err := Append(nil, f)
		if err != nil {
			t.Fatalf("type %d: append: %v", f.Type, err)
		}
		got, consumed, err := Decode(buf)
		if err != nil {
			t.Fatalf("type %d: decode: %v", f.Type, err)
		}
		if consumed != len(buf) {
			t.Fatalf("type %d: consumed %d of %d bytes", f.Type, consumed, len(buf))
		}
		if want := normalize(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("type %d: round trip diverges:\n got %+v\nwant %+v", f.Type, got, want)
		}
	}
}

// TestFrameDecodeTruncated: every strict prefix of a valid frame reports
// ErrTruncated — the retryable "need more bytes" signal — never corruption
// and never a bogus success.
func TestFrameDecodeTruncated(t *testing.T) {
	for _, f := range sampleFrames() {
		buf, err := Append(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := Decode(buf[:cut]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("type %d: prefix %d/%d: got %v, want ErrTruncated", f.Type, cut, len(buf), err)
			}
		}
	}
}

// TestFrameDecodeCorrupt: flipping any single bit of a frame must surface an
// error (checksum mismatch for payload damage; length/framing errors for
// header damage). No flip may decode silently.
func TestFrameDecodeCorrupt(t *testing.T) {
	for _, f := range sampleFrames() {
		buf, err := Append(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), buf...)
				mut[i] ^= 1 << bit
				if _, _, err := Decode(mut); err == nil {
					t.Fatalf("type %d: flipping byte %d bit %d decoded cleanly", f.Type, i, bit)
				}
			}
		}
	}
}

func TestFrameDecodeRejects(t *testing.T) {
	valid, err := Append(nil, &Frame{Type: FrameReady})
	if err != nil {
		t.Fatal(err)
	}
	huge := append([]byte(nil), valid...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0xff
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"length over limit", huge, ErrFrameTooLarge},
		{"zero-length payload", []byte{0, 0, 0, 0, 0, 0, 0, 0}, ErrBadFrame},
	}
	for _, tc := range cases {
		if _, _, err := Decode(tc.buf); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := Append(nil, &Frame{Type: FrameType(200)}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("unknown type on encode: got %v", err)
	}
	wide := &Frame{Type: FrameData, Total: 1, Msgs: []Msg{{Data: make([]int64, MaxFrameBytes/8)}}}
	if _, err := Append(nil, wide); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame on encode: got %v", err)
	}
}

// TestReadFramePartialWrites: a reader must reassemble frames from
// arbitrarily fragmented reads — here the worst case, one byte at a time.
func TestReadFramePartialWrites(t *testing.T) {
	var stream []byte
	frames := sampleFrames()
	for _, f := range frames {
		var err error
		stream, err = Append(stream, f)
		if err != nil {
			t.Fatal(err)
		}
	}
	r := iotest.OneByteReader(bytes.NewReader(stream))
	for i, f := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if want := normalize(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d diverges:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

func TestReadFrameMidFrameEOF(t *testing.T) {
	buf, err := Append(nil, &Frame{Type: FrameError, Addr: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{frameHeaderLen, len(buf) - 1} {
		if _, err := ReadFrame(bytes.NewReader(buf[:cut])); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	if _, err := ReadFrame(bytes.NewReader(buf[:3])); err != io.ErrUnexpectedEOF {
		t.Fatalf("mid-header cut: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestFrameReorderedDelivery: frames are self-contained, so a stream
// written in any frame order decodes every frame intact, whatever frame
// precedes it.
func TestFrameReorderedDelivery(t *testing.T) {
	frames := sampleFrames()
	perm := rand.New(rand.NewSource(1)).Perm(len(frames))
	var stream []byte
	for _, i := range perm {
		var err error
		stream, err = Append(stream, frames[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	for _, i := range perm {
		got, consumed, err := Decode(stream[off:])
		if err != nil {
			t.Fatalf("frame %d at offset %d: %v", i, off, err)
		}
		off += consumed
		if want := normalize(frames[i]); !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d diverges after reorder:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if off != len(stream) {
		t.Fatalf("consumed %d of %d bytes", off, len(stream))
	}
}

// FuzzFrameDecode: Decode must never panic or over-read on arbitrary input,
// and anything it accepts must re-encode to exactly the bytes it consumed
// (the codec is canonical). Every input is also decoded into reused,
// dirty memory — decoders and a Reader that have already decoded every
// sample frame, without a Release, into a frame still holding the last of
// them — which must give the same frame or the same error. Seeds cover
// every frame type plus corrupted variants; the checked-in corpus under
// testdata extends them.
func FuzzFrameDecode(f *testing.F) {
	var samples []byte
	for _, fr := range sampleFrames() {
		buf, err := Append(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		samples = append(samples, buf...)
		f.Add(buf)
		if len(buf) > 10 {
			f.Add(buf[:10])
		}
		mut := append([]byte(nil), buf...)
		mut[len(mut)/2] ^= 0x40
		f.Add(mut)
	}
	dirty := func(t *testing.T, dc *Decoder, df *Frame) {
		for off := 0; off < len(samples); {
			n, err := dc.Decode(samples[off:], df)
			if err != nil {
				t.Fatalf("dirtying decoder: %v", err)
			}
			off += n
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, consumed, err := Decode(b)

		for _, recycle := range []bool{false, true} {
			dc := Decoder{Recycle: recycle}
			var df Frame
			dirty(t, &dc, &df)
			n, derr := dc.Decode(b, &df)
			if (err == nil) != (derr == nil) || err != nil && err.Error() != derr.Error() {
				t.Fatalf("recycle=%v: reused decoder returned error %v, fresh decode %v", recycle, derr, err)
			}
			if err == nil && (n != consumed || !reflect.DeepEqual(&df, fr)) {
				t.Fatalf("recycle=%v: reused decoder diverges:\n got %+v (%d bytes)\nwant %+v (%d bytes)", recycle, &df, n, fr, consumed)
			}
		}
		if err == nil {
			rd := NewReader(bytes.NewReader(append(append([]byte(nil), samples...), b...)))
			rd.Recycle = true
			var rf Frame
			for range sampleFrames() {
				if err := rd.Read(&rf); err != nil {
					t.Fatalf("dirtying reader: %v", err)
				}
			}
			if err := rd.Read(&rf); err != nil || !reflect.DeepEqual(&rf, fr) {
				t.Fatalf("reused reader diverges (%v):\n got %+v\nwant %+v", err, &rf, fr)
			}
		}

		if err != nil {
			if fr != nil || consumed != 0 {
				t.Fatalf("error %v returned frame %v / consumed %d", err, fr, consumed)
			}
			return
		}
		if consumed <= 0 || consumed > len(b) {
			t.Fatalf("consumed %d of %d", consumed, len(b))
		}
		re, err := Append(nil, fr)
		if err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		if !bytes.Equal(re, b[:consumed]) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", b[:consumed], re)
		}
	})
}
