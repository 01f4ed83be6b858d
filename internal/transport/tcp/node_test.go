package tcp

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lapcc/internal/transport"
)

// TestLoopReportsStreamErrors drives a worker's reader goroutines with a
// net.Pipe coordinator and one scripted peer stream, while no barrier is in
// flight. A corrupt frame on the peer connection and a chunk stream that
// breaks the in-order barrier contract must each reach the coordinator as a
// FrameError naming the cause, and come back as the node's error.
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
		is     error  // the node's error wraps this (nil: protocol error)
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
			nd.crd = newReader(bufio.NewReader(coord))
			nd.prd[0] = newReader(bufio.NewReader(bytes.NewReader(tc.stream)))
			defer nd.closeAll()
			done := make(chan error, 1)
			go func() { done <- nd.serve() }()

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
				t.Fatalf("node returned %v, want the reported error %q", err, f.Addr)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("node error %v does not wrap %v", err, tc.is)
			}
		})
	}
}

// gatedConn holds the first Write on each end of a mesh link until both
// ends have begun one, so the two workers write to each other at once.
type gatedConn struct {
	net.Conn
	once *sync.Once
	gate *sync.WaitGroup
}

func (c gatedConn) Write(b []byte) (int, error) {
	c.once.Do(func() {
		c.gate.Done()
		c.gate.Wait()
	})
	return c.Conn.Write(b)
}

// TestSimultaneousPeerWrites runs two workers over unbuffered pipes and
// makes them start writing their chunks to each other at the same moment.
// A pipe write completes only while the peer's reader drains it, and each
// direction carries three chunks, so a worker that held its lock across
// its peer writes would deadlock here on every run; the Round step must
// release it. Both inboxes must come back complete.
func TestSimultaneousPeerWrites(t *testing.T) {
	const n, perSrc = 4, transport.ChunkMsgs + 1 // two sources per worker: 3 chunks each way
	var gate sync.WaitGroup
	gate.Add(2)
	mesh := [2]net.Conn{}
	mesh[0], mesh[1] = net.Pipe()
	nodes := [2]*node{}
	coords := [2]net.Conn{}
	errs := make(chan error, 2)
	for id := 0; id < 2; id++ {
		nd := newNode(id, 2, NodeConfig{})
		var c net.Conn
		c, coords[id] = net.Pipe()
		nd.coord, nd.crd = c, newReader(bufio.NewReader(c))
		peer := 1 - id
		nd.peers[peer] = gatedConn{Conn: mesh[id], once: new(sync.Once), gate: &gate}
		nd.prd[peer] = newReader(bufio.NewReader(mesh[id]))
		nodes[id] = nd
		go func() { errs <- nd.serve() }()
	}
	defer func() {
		for id := 0; id < 2; id++ {
			coords[id].Close()
			mesh[id].Close()
			if err := <-errs; err != nil {
				t.Errorf("worker exited with %v", err)
			}
		}
	}()

	// Worker id owns the sources id and id+2; each sends perSrc one-word
	// messages to the other worker's node.
	for id := 0; id < 2; id++ {
		var msgs []transport.Msg
		for _, src := range []int32{int32(id), int32(id + 2)} {
			for k := 0; k < perSrc; k++ {
				msgs = append(msgs, transport.Msg{From: src, To: int32(1 - id), Data: []int64{int64(src)<<32 | int64(k)}})
			}
		}
		go func() {
			transport.WriteFrame(coords[id], &transport.Frame{Type: transport.FrameRound, Round: 0, Msgs: msgs})
		}()
	}
	for id := 0; id < 2; id++ {
		coords[id].SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := transport.ReadFrame(coords[id])
		if err != nil {
			t.Fatalf("worker %d: reading its inbox: %v", id, err)
		}
		if f.Type != transport.FrameInbox || len(f.Msgs) != 2*perSrc {
			t.Fatalf("worker %d sent frame type %d with %d messages, want an inbox of %d", id, f.Type, len(f.Msgs), 2*perSrc)
		}
		for i, m := range f.Msgs {
			src := int32(1-id) + 2*int32(i/perSrc)
			if m.From != src || m.To != int32(id) || len(m.Data) != 1 || m.Data[0] != int64(src)<<32|int64(i%perSrc) {
				t.Fatalf("worker %d: inbox message %d is %+v", id, i, m)
			}
		}
		if want := uint64(3); f.Stats.Frames != want {
			t.Fatalf("worker %d sent %d chunks, want %d", id, f.Stats.Frames, want)
		}
	}
}
