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
//	msgs    := u32 count | count × msg
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
	"slices"
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
	// (coordinator -> node); its body is u64 round | msgs.
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
		buf = appendMsgs(buf, f.Msgs)
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

// msgs reads a message list into dc's table and word arena.
func (d *decoder) msgs(dc *Decoder) []Msg {
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
	// Walk the list once to check its structure and total its words, so
	// the table and the arena are sized before anything is copied.
	scan := *d
	words := 0
	for i := uint32(0); i < count; i++ {
		scan.u32() // from
		scan.u32() // to
		width := scan.u32()
		if scan.err == nil && (width > maxMsgWidth || scan.off+int(width)*8 > len(scan.b)) {
			scan.fail()
		}
		if scan.err != nil {
			d.err = scan.err
			return nil
		}
		scan.off += int(width) * 8
		words += int(width)
	}
	if cap(dc.msgs) < int(count) {
		dc.msgs = make([]Msg, count)
	}
	msgs := dc.msgs[:count]
	var arena []int64
	if dc.Recycle {
		start := len(dc.words)
		dc.words = slices.Grow(dc.words, words)[:start+words]
		arena = dc.words[start:]
	} else if words > 0 {
		arena = make([]int64, words)
	}
	for i := range msgs {
		from := int32(d.u32())
		to := int32(d.u32())
		width := int(d.u32())
		var data []int64
		if width > 0 {
			data, arena = arena[:width:width], arena[width:]
			for j := range data {
				data[j] = int64(binary.LittleEndian.Uint64(d.b[d.off:]))
				d.off += 8
			}
		}
		msgs[i] = Msg{From: from, To: to, Data: data}
	}
	return msgs
}

// A Decoder decodes frames into memory it keeps. Its message table is
// reused by every decode, so a decoded frame's Msgs are valid until the
// next one. The payload words of each frame go to one fresh arena that the
// Decoder never touches again, so callers may keep them; with Recycle set
// they go to an arena the Decoder keeps, where they stay valid until the
// next Release. The zero value decodes into fresh arenas.
type Decoder struct {
	// Recycle keeps payload words in the decoder's own arena, which grows
	// across decodes until Release lets it be overwritten.
	Recycle bool

	msgs  []Msg
	words []int64
}

// Release lets a recycling decoder overwrite the payload words of every
// frame it has decoded.
func (dc *Decoder) Release() { dc.words = dc.words[:0] }

// Decode decodes the first frame in b into f, replacing all of f's
// contents, and returns the number of bytes consumed. Errors are those of
// the package-level Decode; on error f is left unspecified.
func (dc *Decoder) Decode(b []byte, f *Frame) (int, error) {
	if len(b) < frameHeaderLen {
		return 0, ErrTruncated
	}
	length := binary.LittleEndian.Uint32(b)
	if length > MaxFrameBytes {
		return 0, fmt.Errorf("%w: length prefix %d", ErrFrameTooLarge, length)
	}
	if length == 0 {
		return 0, fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	end := frameHeaderLen + int(length)
	if len(b) < end {
		return 0, ErrTruncated
	}
	payload := b[frameHeaderLen:end]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return 0, ErrBadChecksum
	}
	if err := dc.DecodePayload(payload, f); err != nil {
		return 0, err
	}
	return end, nil
}

// DecodePayload decodes one checked frame payload, as Reader.Next returns
// it, into f, replacing all of f's contents.
func (dc *Decoder) DecodePayload(payload []byte, f *Frame) error {
	d := decoder{b: payload}
	*f = Frame{Type: FrameType(d.u8())}
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
		f.Msgs = d.msgs(dc)
	case FrameData:
		f.Round = d.u64()
		f.Node = int32(d.u32())
		f.Seq = d.u32()
		f.Total = d.u32()
		f.Msgs = d.msgs(dc)
	case FrameInbox:
		f.Round = d.u64()
		f.Node = int32(d.u32())
		f.Msgs = d.msgs(dc)
		f.Stats.Frames = d.u64()
		f.Stats.FrameBytes = d.u64()
	case FrameError:
		f.Addr = d.str()
	default:
		return fmt.Errorf("%w: unknown type %d", ErrBadFrame, f.Type)
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(d.b)-d.off)
	}
	return nil
}

// Decode decodes the first frame in b, returning it and the number of bytes
// consumed. ErrTruncated means b ends mid-frame (read more and retry); other
// errors mean the stream is corrupt at this position. The frame owns all of
// its memory.
func Decode(b []byte) (*Frame, int, error) {
	var dc Decoder
	f := new(Frame)
	n, err := dc.Decode(b, f)
	if err != nil {
		return nil, 0, err
	}
	return f, n, nil
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
// io.ErrUnexpectedEOF. The frame owns all of its memory; a connection that
// carries more than a handful of frames reads them through a Reader.
func ReadFrame(r io.Reader) (*Frame, error) {
	f := new(Frame)
	if err := NewReader(r).Read(f); err != nil {
		return nil, err
	}
	return f, nil
}

// A Reader reads frames from one stream into memory it reuses: a payload
// buffer kept from frame to frame, and its Decoder.
type Reader struct {
	Decoder

	r       io.Reader
	hdr     [frameHeaderLen]byte
	payload []byte
}

// NewReader returns a Reader of r's frames.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next reads one frame from the stream and returns its checked payload,
// valid until the next call, for DecodePayload. It has ReadFrame's error
// semantics.
func (r *Reader) Next() ([]byte, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		return nil, err
	}
	length := binary.LittleEndian.Uint32(r.hdr[:])
	if length > MaxFrameBytes {
		return nil, fmt.Errorf("%w: length prefix %d", ErrFrameTooLarge, length)
	}
	if length == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	if cap(r.payload) < int(length) {
		r.payload = make([]byte, length)
	}
	payload := r.payload[:length]
	if _, err := io.ReadFull(r.r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(r.hdr[4:]) {
		return nil, ErrBadChecksum
	}
	return payload, nil
}

// Read reads one frame from the stream and decodes it into f, replacing
// all of f's contents.
func (r *Reader) Read(f *Frame) error {
	payload, err := r.Next()
	if err != nil {
		return err
	}
	return r.DecodePayload(payload, f)
}
