package tcp

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"lapcc/internal/transport"
)

// TestLoopReportsStreamErrors drives a worker's protocol loop with a
// net.Pipe coordinator and one scripted peer stream, while no barrier is in
// flight. A corrupt frame on the peer connection and a chunk stream that
// breaks the in-order barrier contract must each reach the coordinator as a
// FrameError naming the cause, and come back as the loop's error.
func TestLoopReportsStreamErrors(t *testing.T) {
	frames := func(fs ...*transport.Frame) []byte {
		var b []byte
		for _, f := range fs {
			var err error
			if b, err = transport.Append(b, f); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	chunk := func(round uint64, seq, total uint32) *transport.Frame {
		return &transport.Frame{Type: transport.FrameData, Round: round, Node: 0, Seq: seq, Total: total}
	}
	flipped := frames(chunk(0, 0, 1))
	flipped[len(flipped)-1] ^= 1
	huge := frames(chunk(0, 0, 1))
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0xff

	cases := []struct {
		name   string
		stream []byte
		is     error  // the loop's error wraps this (nil: protocol error)
		text   string // the FrameError text contains this
	}{
		{"bit flip", flipped, transport.ErrBadChecksum, transport.ErrBadChecksum.Error()},
		{"empty payload", make([]byte, 8), transport.ErrBadFrame, transport.ErrBadFrame.Error()},
		{"oversized length", huge, transport.ErrFrameTooLarge, transport.ErrFrameTooLarge.Error()},
		{"chunk skipped", frames(chunk(0, 1, 2)), nil, "out of sequence"},
		{"chunk count changed", frames(chunk(0, 0, 2), chunk(0, 1, 3)), nil, "out of sequence"},
		{"round changed mid-barrier", frames(chunk(0, 0, 2), chunk(1, 0, 1)), nil, "round 1 during round 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord, far := net.Pipe()
			defer far.Close()
			nd := newNode(1, 2, NodeConfig{})
			nd.coord = coord
			defer nd.closeAll()
			go nd.read(bufio.NewReader(bytes.NewReader(tc.stream)), 0)
			done := make(chan error, 1)
			go func() { done <- nd.loop() }()

			far.SetReadDeadline(time.Now().Add(10 * time.Second))
			f, err := transport.ReadFrame(far)
			if err != nil {
				t.Fatalf("coordinator read: %v", err)
			}
			if f.Type != transport.FrameError || !strings.Contains(f.Addr, tc.text) {
				t.Fatalf("coordinator got frame type %d %q, want a FrameError containing %q", f.Type, f.Addr, tc.text)
			}
			err = <-done
			if err == nil || err.Error() != f.Addr {
				t.Fatalf("loop returned %v, want the reported error %q", err, f.Addr)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("loop error %v does not wrap %v", err, tc.is)
			}
		})
	}
}
