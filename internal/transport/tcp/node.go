package tcp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

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

// barrier is a worker's state for the one delivery barrier in flight. The
// coordinator dispatches round r+1 only after it has collected every
// worker's inbox for round r, so a worker never sees traffic for two rounds
// at once; the per-peer slices are reused from one barrier to the next.
type barrier struct {
	active    bool // a frame of round has arrived and the inbox is not yet sent
	started   bool // at least one barrier has begun on this worker
	round     uint64
	haveRound bool // this worker's Round frame is in and its chunks are written

	local []transport.Msg   // sends owned by this worker for itself
	in    [][]transport.Msg // assembled chunks, per sending peer
	next  []uint32          // next expected chunk, per sending peer
	total []uint32          // chunk count, per sending peer (0: none yet)
	shard []transport.Msg   // the assembled inbox shard

	stats transport.WireStats
}

// node is a worker's full connection and round state. Each connection has
// one reader goroutine, which reads a frame, then decodes it and runs its
// protocol step under mu. That cannot deadlock: a reader blocks only on
// its socket or on mu, and mu is never held across a peer write (a Round
// step releases it while it writes its chunks), so every peer write
// finishes once the peer's reader drains it. Writes to the coordinator
// (inbox, pong, error) do happen under mu; the coordinator reads every
// inbox of a barrier before it sends anything else, and a worker writes
// its inbox only after every peer chunk of the barrier has arrived, so no
// peer is left writing to a worker that blocks there.
type node struct {
	id    int32
	procs int
	cfg   NodeConfig

	coord net.Conn
	crd   *transport.Reader   // coordinator link
	peers []net.Conn          // peers[id] == nil
	prd   []*transport.Reader // per-peer frame readers, created at mesh time

	// cwmu serializes writes to the coordinator link and guards cbuf,
	// their encode buffer.
	cwmu sync.Mutex
	cbuf []byte

	// sendTo and pbuf belong to the coordinator link's reader, the only
	// goroutine that writes to peers: its Round step partitions the sends
	// by peer into sendTo and encodes each chunk into pbuf.
	sendTo [][]transport.Msg
	pbuf   []byte

	// mu guards the protocol state and every reader's decoder. Frames are
	// decoded under it, so the recycled word arenas are released, at the
	// end of a barrier, only while no decode and no other step runs.
	mu    sync.Mutex
	cur   barrier
	ended bool
	err   error         // the node's outcome, set when it ends
	done  chan struct{} // closed when the node ends
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
		prd:    make([]*transport.Reader, procs),
		sendTo: make([][]transport.Msg, procs),
		done:   make(chan struct{}),
		cur: barrier{
			in:    make([][]transport.Msg, procs),
			next:  make([]uint32, procs),
			total: make([]uint32, procs),
		},
	}
}

// newReader returns the frame reader of one of a worker's connections.
// Workers recycle everything they decode: nothing outlives its barrier,
// because a frame of round r+1 can only arrive after the coordinator has
// read this worker's inbox for round r.
func newReader(br *bufio.Reader) *transport.Reader {
	rd := transport.NewReader(br)
	rd.Recycle = true
	return rd
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
	return nd.serve()
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
		nd.prd[j] = newReader(bufio.NewReader(conn))
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
		nd.prd[acc.id] = newReader(acc.rd)
	}

	// Mesh complete: report ready. Frames that arrive before serve starts
	// the readers wait in the socket buffers.
	nd.crd = newReader(crd)
	if err := nd.sendCoord(&transport.Frame{Type: transport.FrameReady, Node: nd.id}); err != nil {
		return fmt.Errorf("node %d: ready: %w", nd.id, err)
	}
	return nil
}

// serve runs one reader goroutine per connection until one of them ends
// the node, then closes every connection and waits for the readers.
func (nd *node) serve() error {
	var wg sync.WaitGroup
	start := func(rd *transport.Reader, peer int32) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nd.read(rd, peer)
		}()
	}
	start(nd.crd, -1)
	for j, rd := range nd.prd {
		if rd != nil {
			start(rd, int32(j))
		}
	}
	<-nd.done
	nd.closeAll()
	wg.Wait()
	return nd.err
}

// read is one connection's reader: it reads each frame from the socket,
// then decodes it and runs its protocol step under mu. peer is the sending
// worker, or -1 for the coordinator link. Any protocol error, and any
// corrupt frame, is reported to the coordinator in a FrameError before the
// worker ends.
func (nd *node) read(rd *transport.Reader, peer int32) {
	var f transport.Frame
	for {
		payload, err := rd.Next()
		nd.mu.Lock()
		if nd.ended {
			nd.mu.Unlock()
			return
		}
		if err == nil {
			err = rd.DecodePayload(payload, &f)
		}
		if err != nil {
			nd.readFailed(peer, err)
			nd.mu.Unlock()
			return
		}
		switch {
		case peer >= 0 && f.Type == transport.FrameData:
			err = nd.onData(&f, peer)
		case peer < 0 && f.Type == transport.FrameRound:
			err = nd.onRound(&f)
		case peer < 0 && f.Type == transport.FramePing:
			// Supervisor liveness probe; only sent between barriers.
			err = nd.sendCoord(&transport.Frame{Type: transport.FramePong, Node: nd.id})
		case peer < 0 && f.Type == transport.FrameShutdown:
			nd.end(nil, false)
		default:
			err = fmt.Errorf("node %d: unexpected frame type %d from %d", nd.id, f.Type, peer)
		}
		if err != nil {
			nd.end(err, true)
		}
		ended := nd.ended
		nd.mu.Unlock()
		if ended {
			return
		}
	}
}

// readFailed ends the node on a connection's read error. Called under mu.
func (nd *node) readFailed(peer int32, err error) {
	err = fmt.Errorf("node %d: connection to %d: %w", nd.id, peer, err)
	switch {
	case corrupt(err):
		nd.end(err, true)
	case nd.cur.active:
		// A connection dropping while a barrier is in flight is a real
		// failure.
		nd.end(err, false)
	default:
		// Between barriers it is the normal shutdown race: the
		// coordinator's Shutdown frames race the mesh teardown of workers
		// that processed theirs first.
		nd.end(nil, false)
	}
}

// end ends the node with err (nil: a clean exit), reporting err to the
// coordinator first when report is set. The first call decides the
// outcome. Called under mu.
func (nd *node) end(err error, report bool) {
	if nd.ended {
		return
	}
	nd.ended, nd.err = true, err
	if report {
		nd.sendCoord(&transport.Frame{Type: transport.FrameError, Addr: err.Error()})
	}
	close(nd.done)
}

// sendCoord encodes f into the coordinator link's buffer and writes it in
// one Write call.
func (nd *node) sendCoord(f *transport.Frame) error {
	nd.cwmu.Lock()
	defer nd.cwmu.Unlock()
	var err error
	if nd.cbuf, err = transport.Append(nd.cbuf[:0], f); err != nil {
		return err
	}
	_, err = nd.coord.Write(nd.cbuf)
	return err
}

func (nd *node) closeAll() {
	if nd.coord != nil {
		nd.coord.Close()
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

// onRound chunks this worker's owned sends to their destination owners. It
// releases mu while it writes the chunks, so this worker's readers keep
// draining its peers' chunks meanwhile, and the Round counts as arrived
// only once every chunk is written. Called under mu; returns under mu.
func (nd *node) onRound(f *transport.Frame) error {
	if err := nd.begin(f.Round); err != nil {
		return err
	}
	b := &nd.cur
	if b.haveRound {
		return fmt.Errorf("node %d: duplicate round %d", nd.id, f.Round)
	}

	// Partition by destination owner, preserving order (the coordinator
	// sends in ascending-source order; per (src,dst) order rides along).
	for _, m := range f.Msgs {
		p := owner(m.To, nd.procs)
		if p == nd.id {
			b.local = append(b.local, m)
			continue
		}
		nd.sendTo[p] = append(nd.sendTo[p], m)
	}
	rc := f.Round
	nd.mu.Unlock()
	st, err := nd.sendChunks(rc)
	nd.mu.Lock()
	if err != nil || nd.ended {
		return err
	}
	b.stats.Frames += st.Frames
	b.stats.FrameBytes += st.FrameBytes
	b.haveRound = true
	return nd.maybeFinish()
}

// sendChunks writes this worker's sends of round rc to every peer as
// Data frames of at most ChunkMsgs messages, one Write per frame. It runs
// without mu and touches only sendTo, pbuf and the peer connections, which
// no other goroutine uses.
func (nd *node) sendChunks(rc uint64) (transport.WireStats, error) {
	var st transport.WireStats
	for j := int32(0); int(j) < nd.procs; j++ {
		if j == nd.id {
			continue
		}
		msgs := nd.sendTo[j]
		// Every peer pair exchanges at least one (possibly empty) chunk per
		// round, so a peer's last chunk doubles as its barrier arrival even
		// when nothing is sent.
		nchunks := max(1, (len(msgs)+transport.ChunkMsgs-1)/transport.ChunkMsgs)
		for c := 0; c < nchunks; c++ {
			lo := c * transport.ChunkMsgs
			hi := min(lo+transport.ChunkMsgs, len(msgs))
			var err error
			nd.pbuf, err = transport.Append(nd.pbuf[:0], &transport.Frame{
				Type: transport.FrameData, Round: rc, Node: nd.id,
				Seq: uint32(c), Total: uint32(nchunks), Msgs: msgs[lo:hi],
			})
			if err == nil {
				_, err = nd.peers[j].Write(nd.pbuf)
			}
			if err != nil {
				return st, fmt.Errorf("node %d: sending data to %d: %w", nd.id, j, err)
			}
			st.Frames++
			st.FrameBytes += uint64(len(nd.pbuf))
		}
		nd.sendTo[j] = msgs[:0]
	}
	return st, nil
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
	if f.Node != peer {
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
// condition holds: this worker's Round frame is in and its chunks written,
// and every peer's chunks 0..Total-1 have arrived.
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
	if err := nd.sendCoord(&transport.Frame{
		Type: transport.FrameInbox, Round: b.round, Node: nd.id, Msgs: shard, Stats: b.stats,
	}); err != nil {
		return fmt.Errorf("node %d: inbox for round %d: %w", nd.id, b.round, err)
	}

	// Reset for the next barrier, keeping every buffer's capacity. The
	// inbox is encoded, so the readers may overwrite this barrier's words.
	nd.crd.Release()
	for _, rd := range nd.prd {
		if rd != nil {
			rd.Release()
		}
	}
	b.shard = shard[:0]
	b.local = b.local[:0]
	for j := range b.in {
		b.in[j] = b.in[j][:0]
		b.next[j], b.total[j] = 0, 0
	}
	b.active, b.haveRound = false, false
	b.stats = transport.WireStats{}
	return nil
}
