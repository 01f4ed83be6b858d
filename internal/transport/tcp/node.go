package tcp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"lapcc/internal/trace"
	"lapcc/internal/transport"
)

// NodeConfig carries a worker's tunables. The in-process mode passes the
// coordinator's settings directly; the supervisor passes them to exec'd
// lapccnode processes as flags, so a respawned worker rejoins with exactly
// the settings of the mesh it replaces. Zero values take the worker
// defaults.
type NodeConfig struct {
	// DialTimeout bounds the coordinator and mesh-peer dials and the mesh
	// accept window (default 10s).
	DialTimeout time.Duration
	// Epoch is the coordinator's mesh incarnation; it keys the chaos
	// plan's injection decisions.
	Epoch uint64
	// Chaos injects socket-level write faults into this worker's mesh
	// connections (nil: none).
	Chaos *transport.ChaosPlan
}

// event is one unit of work for the node's single-threaded main loop: a
// decoded frame from a connection, or that connection's read error.
type event struct {
	frame *transport.Frame
	peer  int32 // sending worker; -1 for the coordinator
	err   error
}

// barrier is a worker's state for the one delivery barrier in flight. The
// coordinator dispatches round r+1 only after it has collected every
// worker's inbox for round r, so a worker never sees traffic for two rounds
// at once; the per-peer slices are reused from one barrier to the next.
type barrier struct {
	active    bool // a frame of round has arrived and the inbox is not yet sent
	started   bool // at least one barrier has begun on this worker
	round     uint64
	haveRound bool

	local []transport.Msg   // sends owned by this worker for itself
	out   [][]transport.Msg // this worker's sends, per receiving peer
	in    [][]transport.Msg // assembled chunks, per sending peer
	next  []uint32          // next expected chunk, per sending peer
	total []uint32          // chunk count, per sending peer (0: none yet)
	shard []transport.Msg   // the assembled inbox shard

	stats transport.WireStats

	traced    bool  // round was flagged RoundFlagTrace
	sentMsgs  int64 // messages this worker's owned sources sent
	sentWords int64 // payload words across them
}

// writer drains an unbounded frame queue onto one mesh connection. Mesh
// sends must never block the protocol loop: two workers simultaneously
// blocked writing large frames to each other, with their loops unable to
// drain reads, would deadlock. Queueing decouples the loop from socket
// backpressure; a write error is latched and the connection's reader
// surfaces it to the loop.
type writer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      [][]byte
	closed bool
}

func newWriter(conn net.Conn) *writer {
	w := &writer{}
	w.cond = sync.NewCond(&w.mu)
	go func() {
		for {
			w.mu.Lock()
			for len(w.q) == 0 && !w.closed {
				w.cond.Wait()
			}
			if w.closed && len(w.q) == 0 {
				w.mu.Unlock()
				return
			}
			batch := w.q
			w.q = nil
			w.mu.Unlock()
			for _, b := range batch {
				if _, err := conn.Write(b); err != nil {
					w.mu.Lock()
					w.closed = true // drop the rest; the reader reports the error
					w.q = nil
					w.mu.Unlock()
					return
				}
			}
		}
	}()
	return w
}

func (w *writer) enqueue(b []byte) {
	w.mu.Lock()
	if !w.closed {
		w.q = append(w.q, b)
		w.cond.Signal()
	}
	w.mu.Unlock()
}

func (w *writer) close() {
	w.mu.Lock()
	w.closed = true
	w.cond.Signal()
	w.mu.Unlock()
}

// node is a worker's full connection and round state. All state is owned by
// the run loop; reader goroutines only feed the event channel.
type node struct {
	id    int32
	procs int
	cfg   NodeConfig

	coord net.Conn
	peers []net.Conn      // peers[id] == nil
	prd   []*bufio.Reader // per-peer readers, created at mesh time
	pw    []*writer       // per-peer async writers

	cwmu   sync.Mutex
	events chan event

	cur barrier
}

func newNode(id, procs int, cfg NodeConfig) *node {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	return &node{
		id:     int32(id),
		procs:  procs,
		cfg:    cfg,
		peers:  make([]net.Conn, procs),
		prd:    make([]*bufio.Reader, procs),
		pw:     make([]*writer, procs),
		events: make(chan event, 4*procs),
		cur: barrier{
			out:   make([][]transport.Msg, procs),
			in:    make([][]transport.Msg, procs),
			next:  make([]uint32, procs),
			total: make([]uint32, procs),
		},
	}
}

// RunNodeWith runs one worker of a multi-process clique: it dials the
// coordinator, joins the TCP mesh, and serves delivery barriers until the
// coordinator shuts it down or a connection drops. It is the entire body of
// cmd/lapccnode and of every in-process worker.
func RunNodeWith(coordAddr string, id, procs int, cfg NodeConfig) error {
	nd := newNode(id, procs, cfg)
	defer nd.closeAll()

	if err := nd.join(coordAddr); err != nil {
		// Best effort: tell the coordinator why bootstrap failed before
		// giving up, so the failure surfaces there rather than as a hang.
		if nd.coord != nil {
			nd.sendCoord(&transport.Frame{Type: transport.FrameError, Addr: err.Error()})
		}
		return err
	}
	return nd.loop()
}

// join performs the mesh bootstrap: hello to the coordinator, receive the
// peer table, dial lower-id peers, accept higher-id peers, report ready.
func (nd *node) join(coordAddr string) error {
	coord, err := net.DialTimeout("tcp", coordAddr, nd.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("node %d: dialing coordinator: %w", nd.id, err)
	}
	nd.coord = coord
	crd := bufio.NewReader(coord)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("node %d: mesh listen: %w", nd.id, err)
	}
	defer ln.Close()

	if _, err := transport.WriteFrame(coord, &transport.Frame{
		Type: transport.FrameHello, Node: nd.id, Addr: ln.Addr().String(),
	}); err != nil {
		return fmt.Errorf("node %d: hello: %w", nd.id, err)
	}
	pf, err := transport.ReadFrame(crd)
	if err != nil {
		return fmt.Errorf("node %d: reading peer table: %w", nd.id, err)
	}
	if pf.Type != transport.FramePeers || len(pf.Addrs) != nd.procs {
		return fmt.Errorf("node %d: bad peer table (type %d, %d addrs)", nd.id, pf.Type, len(pf.Addrs))
	}

	// Dial every lower id; accept every higher id. Accepted peers identify
	// themselves with a mesh hello; dialed ones get ours. Acceptance runs
	// concurrently with dialing so no ordering deadlocks the mesh.
	expect := nd.procs - 1 - int(nd.id)
	type accepted struct {
		conn net.Conn
		rd   *bufio.Reader // keeps bytes buffered past the hello
		id   int32
		err  error
	}
	accCh := make(chan accepted, expect)
	go func() {
		// Peers dial shortly after receiving the same peer table, so the
		// dial timeout also bounds the accept window. Without it a worker
		// whose higher-id peers died during bootstrap would wait here
		// forever, which the supervisor's teardown could never unblock.
		if l, ok := ln.(*net.TCPListener); ok {
			l.SetDeadline(time.Now().Add(nd.cfg.DialTimeout))
		}
		for i := 0; i < expect; i++ {
			conn, err := ln.Accept()
			if err != nil {
				accCh <- accepted{err: err}
				return
			}
			rd := bufio.NewReader(conn)
			hf, err := transport.ReadFrame(rd)
			if err != nil || hf.Type != transport.FrameHello {
				conn.Close()
				accCh <- accepted{err: fmt.Errorf("bad mesh hello: %v", err)}
				return
			}
			accCh <- accepted{conn: conn, rd: rd, id: hf.Node}
		}
	}()
	for j := int32(0); j < nd.id; j++ {
		conn, err := net.DialTimeout("tcp", pf.Addrs[j], nd.cfg.DialTimeout)
		if err != nil {
			return fmt.Errorf("node %d: dialing peer %d: %w", nd.id, j, err)
		}
		if _, err := transport.WriteFrame(conn, &transport.Frame{Type: transport.FrameHello, Node: nd.id}); err != nil {
			return fmt.Errorf("node %d: mesh hello to peer %d: %w", nd.id, j, err)
		}
		// Chaos wraps only mesh connections (writes after the hello): the
		// coordinator link stays clean so an injected fault is never
		// mistaken for a dead supervisor.
		nd.peers[j] = nd.cfg.Chaos.WrapConn(conn, nd.cfg.Epoch, nd.id, j)
		nd.prd[j] = bufio.NewReader(conn)
	}
	for i := 0; i < expect; i++ {
		acc := <-accCh
		if acc.err != nil {
			return fmt.Errorf("node %d: accepting mesh peer: %w", nd.id, acc.err)
		}
		if acc.id <= nd.id || int(acc.id) >= nd.procs || nd.peers[acc.id] != nil {
			acc.conn.Close()
			return fmt.Errorf("node %d: duplicate or invalid mesh peer %d", nd.id, acc.id)
		}
		nd.peers[acc.id] = nd.cfg.Chaos.WrapConn(acc.conn, nd.cfg.Epoch, nd.id, acc.id)
		nd.prd[acc.id] = acc.rd
	}

	// Mesh complete: spawn one reader and one async writer per peer
	// connection, then report ready.
	go nd.read(crd, -1)
	for j := int32(0); int(j) < nd.procs; j++ {
		if j == nd.id {
			continue
		}
		nd.pw[j] = newWriter(nd.peers[j])
		go nd.read(nd.prd[j], j)
	}
	if err := nd.sendCoord(&transport.Frame{Type: transport.FrameReady, Node: nd.id}); err != nil {
		return fmt.Errorf("node %d: ready: %w", nd.id, err)
	}
	return nil
}

// read pumps decoded frames from one connection into the event channel.
func (nd *node) read(rd *bufio.Reader, peer int32) {
	for {
		f, err := transport.ReadFrame(rd)
		if err != nil {
			nd.events <- event{peer: peer, err: err}
			return
		}
		nd.events <- event{frame: f, peer: peer}
		if f.Type == transport.FrameShutdown {
			return
		}
	}
}

func (nd *node) sendCoord(f *transport.Frame) error {
	nd.cwmu.Lock()
	defer nd.cwmu.Unlock()
	_, err := transport.WriteFrame(nd.coord, f)
	return err
}

// sendPeer encodes the frame and queues it on the peer's async writer,
// returning the wire size. Socket errors surface through the connection's
// reader, never here.
func (nd *node) sendPeer(p int32, f *transport.Frame) (int, error) {
	buf, err := transport.Append(nil, f)
	if err != nil {
		return 0, err
	}
	nd.pw[p].enqueue(buf)
	return len(buf), nil
}

func (nd *node) closeAll() {
	if nd.coord != nil {
		nd.coord.Close()
	}
	for _, w := range nd.pw {
		if w != nil {
			w.close()
		}
	}
	for _, c := range nd.peers {
		if c != nil {
			c.Close()
		}
	}
}

// corrupt reports a read error meaning the byte stream itself is damaged,
// as opposed to the connection closing.
func corrupt(err error) bool {
	return errors.Is(err, transport.ErrBadChecksum) || errors.Is(err, transport.ErrBadFrame) ||
		errors.Is(err, transport.ErrFrameTooLarge)
}

// loop is the worker's single-threaded protocol engine. Any protocol error,
// and any corrupt frame on any connection, is reported to the coordinator
// in a FrameError before the worker exits.
func (nd *node) loop() error {
	for ev := range nd.events {
		var err error
		switch {
		case ev.err != nil:
			err = fmt.Errorf("node %d: connection to %d: %w", nd.id, ev.peer, ev.err)
			// A connection dropping while a barrier is in flight is a real
			// failure. Between barriers it is the normal shutdown race: the
			// coordinator's Shutdown frames race the mesh teardown of
			// workers that processed theirs first.
			if !corrupt(ev.err) {
				if nd.cur.active {
					return err
				}
				return nil
			}
		case ev.frame.Type == transport.FrameShutdown:
			return nil
		case ev.frame.Type == transport.FramePing:
			// Supervisor liveness probe; only sent between barriers.
			err = nd.sendCoord(&transport.Frame{Type: transport.FramePong, Node: nd.id})
		case ev.frame.Type == transport.FrameRound:
			err = nd.onRound(ev.frame)
		case ev.frame.Type == transport.FrameData:
			err = nd.onData(ev.frame, ev.peer)
		default:
			err = fmt.Errorf("node %d: unexpected frame type %d from %d", nd.id, ev.frame.Type, ev.peer)
		}
		if err != nil {
			nd.sendCoord(&transport.Frame{Type: transport.FrameError, Addr: err.Error()})
			return err
		}
	}
	return nil
}

// begin admits a frame of round rc into the current barrier, starting the
// barrier if none is in flight. Data frames may arrive before this worker's
// own Round frame: peers that received theirs first start sending at once.
func (nd *node) begin(rc uint64) error {
	b := &nd.cur
	if b.active {
		if rc != b.round {
			return fmt.Errorf("node %d: frame for round %d during round %d", nd.id, rc, b.round)
		}
		return nil
	}
	if b.started && rc != b.round+1 {
		return fmt.Errorf("node %d: frame for round %d after round %d", nd.id, rc, b.round)
	}
	b.active, b.started, b.round = true, true, rc
	return nil
}

// onRound chunks this worker's owned sends to their destination owners.
func (nd *node) onRound(f *transport.Frame) error {
	if err := nd.begin(f.Round); err != nil {
		return err
	}
	b := &nd.cur
	if b.haveRound {
		return fmt.Errorf("node %d: duplicate round %d", nd.id, f.Round)
	}
	b.haveRound = true
	if f.Flags&transport.RoundFlagTrace != 0 {
		b.traced = true
		b.sentMsgs = int64(len(f.Msgs))
		for _, m := range f.Msgs {
			b.sentWords += int64(len(m.Data))
		}
	}

	// Partition by destination owner, preserving order (the coordinator
	// sends in ascending-source order; per (src,dst) order rides along).
	for _, m := range f.Msgs {
		p := owner(m.To, nd.procs)
		if p == nd.id {
			b.local = append(b.local, m)
			continue
		}
		b.out[p] = append(b.out[p], m)
	}
	for j := int32(0); int(j) < nd.procs; j++ {
		if j == nd.id {
			continue
		}
		msgs := b.out[j]
		// Every peer pair exchanges at least one (possibly empty) chunk per
		// round, so a peer's last chunk doubles as its barrier arrival even
		// when nothing is sent.
		nchunks := max(1, (len(msgs)+transport.ChunkMsgs-1)/transport.ChunkMsgs)
		for c := 0; c < nchunks; c++ {
			lo := c * transport.ChunkMsgs
			hi := min(lo+transport.ChunkMsgs, len(msgs))
			nb, err := nd.sendPeer(j, &transport.Frame{
				Type: transport.FrameData, Round: f.Round, Node: nd.id,
				Seq: uint32(c), Total: uint32(nchunks), Msgs: msgs[lo:hi],
			})
			if err != nil {
				return fmt.Errorf("node %d: sending data to %d: %w", nd.id, j, err)
			}
			b.stats.Frames++
			b.stats.FrameBytes += uint64(nb)
		}
		b.out[j] = msgs[:0]
	}
	return nd.maybeFinish()
}

// onData appends a peer's chunk to its stream. TCP delivers each
// connection's frames in order or fails the connection, so the chunks of a
// stream must arrive exactly as 0..Total-1: anything else is a protocol
// error, not a loss to repair.
func (nd *node) onData(f *transport.Frame, peer int32) error {
	if err := nd.begin(f.Round); err != nil {
		return err
	}
	b := &nd.cur
	if peer < 0 || peer == nd.id || f.Node != peer {
		return fmt.Errorf("node %d: data frame from node %d on connection %d", nd.id, f.Node, peer)
	}
	if f.Seq != b.next[peer] || f.Seq >= f.Total || (f.Seq > 0 && f.Total != b.total[peer]) {
		return fmt.Errorf("node %d: chunk %d/%d from %d out of sequence (expected %d/%d)",
			nd.id, f.Seq, f.Total, peer, b.next[peer], b.total[peer])
	}
	b.total[peer] = f.Total
	b.next[peer]++
	b.in[peer] = append(b.in[peer], f.Msgs...)
	return nd.maybeFinish()
}

// maybeFinish assembles and sends the worker's inbox shard once the barrier
// condition holds: this worker's Round frame is here, and every peer's
// chunks 0..Total-1 have arrived.
func (nd *node) maybeFinish() error {
	b := &nd.cur
	if !b.haveRound {
		return nil
	}
	for j := range b.next {
		if int32(j) != nd.id && (b.total[j] == 0 || b.next[j] < b.total[j]) {
			return nil
		}
	}

	// Shard order: sending workers ascending, chunks in sequence. The
	// coordinator's stable per-destination sort on top of this reproduces
	// the canonical merge order.
	shard := b.shard[:0]
	for j := range b.in {
		if int32(j) == nd.id {
			shard = append(shard, b.local...)
		} else {
			shard = append(shard, b.in[j]...)
		}
	}
	if b.traced {
		if err := nd.sendTrace(b, shard); err != nil {
			return err
		}
	}
	if err := nd.sendCoord(&transport.Frame{
		Type: transport.FrameInbox, Round: b.round, Node: nd.id, Msgs: shard, Stats: b.stats,
	}); err != nil {
		return fmt.Errorf("node %d: inbox for round %d: %w", nd.id, b.round, err)
	}

	// Reset for the next barrier, keeping every buffer's capacity.
	b.shard = shard[:0]
	b.local = b.local[:0]
	for j := range b.in {
		b.in[j] = b.in[j][:0]
		b.next[j], b.total[j] = 0, 0
	}
	b.active, b.haveRound, b.traced = false, false, false
	b.stats = transport.WireStats{}
	b.sentMsgs, b.sentWords = 0, 0
	return nil
}

// sendTrace ships the barrier's trace records to the coordinator,
// immediately before the inbox frame on the same connection and goroutine,
// so the coordinator reads trace-then-inbox in order. Only
// seed-reproducible quantities are recorded: the worker's sent and
// assembled-shard traffic. Wire counters travel in the inbox's stats and the
// coordinator's flight recorder, outside the deterministic trace stream.
func (nd *node) sendTrace(b *barrier, shard []transport.Msg) error {
	rc := b.round
	buf := trace.NewBuffer()
	buf.Beginf("barrier-%d", rc)
	buf.Traffic("sent", b.sentMsgs, b.sentWords)
	var shardWords int64
	for _, m := range shard {
		shardWords += int64(len(m.Data))
	}
	buf.Traffic("shard", int64(len(shard)), shardWords)
	buf.End()
	blob, err := trace.AppendRecs(nil, buf.Take())
	if err != nil {
		return fmt.Errorf("node %d: encoding trace for round %d: %w", nd.id, rc, err)
	}
	if err := nd.sendCoord(&transport.Frame{
		Type: transport.FrameTrace, Round: rc, Node: nd.id, Blob: blob,
	}); err != nil {
		return fmt.Errorf("node %d: trace for round %d: %w", nd.id, rc, err)
	}
	return nil
}
