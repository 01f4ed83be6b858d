// Package transport implements the wire layer of the routing primitives'
// pluggable delivery boundary (see internal/cc.Transport): a length-prefixed,
// checksummed frame codec shared by every backend that serializes messages,
// plus the in-process Mem backend that round-trips each delivery through
// the codec without sockets. The multi-process TCP backend in
// internal/transport/tcp speaks the same frames over real connections.
//
// Wire format, little-endian throughout:
//
//	frame   := u32 length | u32 crc32c | payload        (length = len(payload))
//	payload := u8 type | body
//	msg     := i32 from | i32 to | u32 width | width × u64
//	str     := u32 length | bytes
//
// The checksum is CRC-32C (Castagnoli) over the payload. Length and checksum
// protect against truncation, bit rot, and framing desynchronization; decode
// errors distinguish "need more bytes" (ErrTruncated) from "stream is
// corrupt" (ErrBadChecksum, ErrBadFrame) so stream readers can block on the
// former and fail loudly on the latter.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// FrameType tags a frame's role in the coordinator/node protocol.
type FrameType uint8

const (
	// FrameHello introduces a node process to the coordinator (Node, Addr =
	// the node's mesh listen address) or to a mesh peer (Node only).
	FrameHello FrameType = 1 + iota
	// FramePeers broadcasts the full mesh address table to every node.
	FramePeers
	// FrameReady signals a node's mesh is fully connected.
	FrameReady
	// FrameRound carries one round's sends owned by the receiving node
	// (coordinator -> node).
	FrameRound
	// FrameData carries one chunk of a node's sends to a peer (node ->
	// node). Seq/Total sequence the chunks of one (round, sender) stream,
	// which travel in order on one connection.
	FrameData
	// Type 6 is reserved: it belonged to a retired acknowledgement frame
	// and decodes as unknown, so the later types keep their wire numbers.
	_
	// FrameInbox returns a node's assembled inbox shard for one round,
	// with its wire-level counters piggybacked (node -> coordinator).
	FrameInbox
	// FrameShutdown asks a node process to exit cleanly.
	FrameShutdown
	// FrameError carries a fatal error description (either direction).
	FrameError
	// FramePing is the coordinator's liveness probe between barriers; a
	// worker answers with FramePong. The supervised transport uses the
	// pair to detect dead workers while no delivery is in flight.
	FramePing
	// FramePong acknowledges a FramePing (node -> coordinator).
	FramePong
	// FrameTrace carries a node's serialized trace records for one barrier
	// (node -> coordinator), sent immediately before the barrier's
	// FrameInbox when the round was flagged RoundFlagTrace. Blob holds a
	// trace.AppendRecs stream; the transport layer does not interpret it.
	FrameTrace
)

// Round flags carried on FrameRound. RoundFlagTrace asks the worker to
// record its barrier-local spans and return them in a FrameTrace.
const (
	RoundFlagTrace uint32 = 1 << iota
)

// Msg is one logical clique message in wire form.
type Msg struct {
	From, To int32
	Data     []int64
}

// WireStats counts a backend's wire-level work; the TCP nodes piggyback
// their per-round counters on FrameInbox.
type WireStats struct {
	Frames, FrameBytes uint64
}

// Frame is the decoded form of one wire frame. Unused fields are zero for
// any given type.
type Frame struct {
	Type  FrameType
	Round uint64
	Node  int32
	// Seq/Total sequence FrameData chunks.
	Seq, Total uint32
	Addr       string   // FrameHello (mesh listen address), FrameError (message)
	Addrs      []string // FramePeers
	Msgs       []Msg    // FrameRound, FrameData, FrameInbox
	Stats      WireStats
	Flags      uint32 // FrameRound (RoundFlag* bits)
	Blob       []byte // FrameTrace (opaque trace record stream)
}

// Defensive decode limits: a corrupt or hostile length field must not drive
// allocation. MaxFrameBytes bounds one frame's payload; the per-field caps
// bound counts before their bodies are read.
const (
	MaxFrameBytes = 1 << 24
	maxStrLen     = 1 << 12
	maxMsgWidth   = 1 << 16
)

const frameHeaderLen = 8

var (
	// ErrTruncated reports a buffer ending mid-frame: not corruption, the
	// reader just needs more bytes.
	ErrTruncated = errors.New("transport: truncated frame")
	// ErrBadChecksum reports a payload failing its CRC.
	ErrBadChecksum = errors.New("transport: frame checksum mismatch")
	// ErrBadFrame reports a structurally invalid frame (bad type, counts
	// that contradict the length, oversized fields).
	ErrBadFrame = errors.New("transport: malformed frame")
	// ErrFrameTooLarge reports a frame exceeding MaxFrameBytes on encode or
	// a length prefix exceeding it on decode.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendMsg(b []byte, m Msg) []byte {
	b = appendU32(b, uint32(m.From))
	b = appendU32(b, uint32(m.To))
	b = appendU32(b, uint32(len(m.Data)))
	for _, w := range m.Data {
		b = appendU64(b, uint64(w))
	}
	return b
}

func appendMsgs(b []byte, msgs []Msg) []byte {
	b = appendU32(b, uint32(len(msgs)))
	for _, m := range msgs {
		b = appendMsg(b, m)
	}
	return b
}

// Append encodes f and appends the framed bytes to buf.
func Append(buf []byte, f *Frame) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header patched below
	p := len(buf)
	buf = append(buf, byte(f.Type))
	switch f.Type {
	case FrameHello:
		buf = appendU32(buf, uint32(f.Node))
		buf = appendStr(buf, f.Addr)
	case FramePeers:
		buf = appendU32(buf, uint32(len(f.Addrs)))
		for _, a := range f.Addrs {
			buf = appendStr(buf, a)
		}
	case FrameReady, FrameShutdown, FramePing, FramePong:
		// type byte only
	case FrameRound:
		buf = appendU64(buf, f.Round)
		buf = appendU32(buf, f.Flags)
		buf = appendMsgs(buf, f.Msgs)
	case FrameTrace:
		buf = appendU64(buf, f.Round)
		buf = appendU32(buf, uint32(f.Node))
		buf = appendU32(buf, uint32(len(f.Blob)))
		buf = append(buf, f.Blob...)
	case FrameData:
		buf = appendU64(buf, f.Round)
		buf = appendU32(buf, uint32(f.Node))
		buf = appendU32(buf, f.Seq)
		buf = appendU32(buf, f.Total)
		buf = appendMsgs(buf, f.Msgs)
	case FrameInbox:
		buf = appendU64(buf, f.Round)
		buf = appendU32(buf, uint32(f.Node))
		buf = appendMsgs(buf, f.Msgs)
		buf = appendU64(buf, f.Stats.Frames)
		buf = appendU64(buf, f.Stats.FrameBytes)
	case FrameError:
		buf = appendStr(buf, f.Addr)
	default:
		return buf[:start], fmt.Errorf("%w: unknown type %d", ErrBadFrame, f.Type)
	}
	payload := buf[p:]
	if len(payload) > MaxFrameBytes {
		return buf[:start], fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf, nil
}

// decoder walks one payload with bounds checking.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: body ends at byte %d", ErrBadFrame, d.off)
	}
}

func (d *decoder) u8() byte {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if n > maxStrLen || d.off+int(n) > len(d.b) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// blob reads a u32-prefixed byte string bounded only by the remaining
// payload (the frame length prefix already caps it at MaxFrameBytes).
func (d *decoder) blob() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if d.off+int(n) > len(d.b) {
		d.fail()
		return nil
	}
	var b []byte
	if n > 0 {
		b = make([]byte, n)
		copy(b, d.b[d.off:d.off+int(n)])
	}
	d.off += int(n)
	return b
}

func (d *decoder) msgs() []Msg {
	count := d.u32()
	if d.err != nil || count == 0 {
		return nil
	}
	// Each message needs at least 12 bytes; reject counts the remaining
	// bytes cannot hold before allocating.
	if int64(count)*12 > int64(len(d.b)-d.off) {
		d.fail()
		return nil
	}
	msgs := make([]Msg, 0, count)
	for i := uint32(0); i < count; i++ {
		from := int32(d.u32())
		to := int32(d.u32())
		width := d.u32()
		if d.err != nil {
			return nil
		}
		if width > maxMsgWidth || d.off+int(width)*8 > len(d.b) {
			d.fail()
			return nil
		}
		var data []int64
		if width > 0 {
			data = make([]int64, width)
			for j := range data {
				data[j] = int64(binary.LittleEndian.Uint64(d.b[d.off:]))
				d.off += 8
			}
		}
		msgs = append(msgs, Msg{From: from, To: to, Data: data})
	}
	return msgs
}

// Decode decodes the first frame in b, returning it and the number of bytes
// consumed. ErrTruncated means b ends mid-frame (read more and retry); other
// errors mean the stream is corrupt at this position.
func Decode(b []byte) (*Frame, int, error) {
	if len(b) < frameHeaderLen {
		return nil, 0, ErrTruncated
	}
	length := binary.LittleEndian.Uint32(b)
	if length > MaxFrameBytes {
		return nil, 0, fmt.Errorf("%w: length prefix %d", ErrFrameTooLarge, length)
	}
	if length == 0 {
		return nil, 0, fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	end := frameHeaderLen + int(length)
	if len(b) < end {
		return nil, 0, ErrTruncated
	}
	payload := b[frameHeaderLen:end]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0, ErrBadChecksum
	}
	f, err := decodePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return f, end, nil
}

func decodePayload(payload []byte) (*Frame, error) {
	d := &decoder{b: payload}
	f := &Frame{Type: FrameType(d.u8())}
	switch f.Type {
	case FrameHello:
		f.Node = int32(d.u32())
		f.Addr = d.str()
	case FramePeers:
		count := d.u32()
		if d.err == nil && int64(count)*4 > int64(len(d.b)-d.off) {
			d.fail()
		}
		for i := uint32(0); d.err == nil && i < count; i++ {
			f.Addrs = append(f.Addrs, d.str())
		}
	case FrameReady, FrameShutdown, FramePing, FramePong:
		// type byte only
	case FrameRound:
		f.Round = d.u64()
		f.Flags = d.u32()
		f.Msgs = d.msgs()
	case FrameTrace:
		f.Round = d.u64()
		f.Node = int32(d.u32())
		f.Blob = d.blob()
	case FrameData:
		f.Round = d.u64()
		f.Node = int32(d.u32())
		f.Seq = d.u32()
		f.Total = d.u32()
		f.Msgs = d.msgs()
	case FrameInbox:
		f.Round = d.u64()
		f.Node = int32(d.u32())
		f.Msgs = d.msgs()
		f.Stats.Frames = d.u64()
		f.Stats.FrameBytes = d.u64()
	case FrameError:
		f.Addr = d.str()
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadFrame, f.Type)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(d.b)-d.off)
	}
	return f, nil
}

// WriteFrame encodes f and writes the framed bytes to w in one Write call
// (one frame = one write keeps frames intact across most transports, though
// the reader never relies on it).
func WriteFrame(w io.Writer, f *Frame) (int, error) {
	buf, err := Append(nil, f)
	if err != nil {
		return 0, err
	}
	return w.Write(buf)
}

// ReadFrame reads exactly one frame from r, tolerating arbitrarily
// fragmented reads (partial writes on the other side). io.EOF is returned
// untouched at a clean frame boundary; mid-frame EOF becomes
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[:])
	if length > MaxFrameBytes {
		return nil, fmt.Errorf("%w: length prefix %d", ErrFrameTooLarge, length)
	}
	if length == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, ErrBadChecksum
	}
	return decodePayload(payload)
}
