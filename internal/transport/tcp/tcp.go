// Package tcp is the multi-process delivery backend of the routing
// primitives' transport boundary: the clique's nodes run as separate OS
// processes (cmd/lapccnode) connected by a full TCP mesh, and the calling
// process acts as the round coordinator. Every frame is length-prefixed and checksummed
// (internal/transport's codec), and chunk streams between peers are
// sequenced. There is no acknowledgement or retransmission layer: TCP
// delivers each connection's bytes in order or fails the connection, and a
// failed connection fails the barrier, which supervision (below) replays on
// a fresh mesh. The model's lossy delivery and its retransmission cost live
// above the transport, in cc's fault layer.
//
// The delivery contract matches every other backend bit for bit: inboxes per
// destination in ascending source order, per-source send order preserved.
// The differential suites pin solver outputs and charged ledgers across
// local, Mem, and TCP runs.
//
// Topology: P worker processes serve any logical node count n; logical node
// v is owned by process v mod P. One Deliver is one barrier:
//
//	coordinator --Round--> every process   (its owned sources' sends)
//	process     --Data---> peer processes  (chunks 0..Total-1, in order)
//	process     --Inbox--> coordinator     (its shard, wire stats piggybacked)
//
// A process's barrier is complete when its own Round frame and every peer's
// last chunk have arrived; at least one (possibly empty) chunk flows between
// every pair of processes per barrier, so the last chunk doubles as the
// peer's barrier arrival.
//
// The coordinator concatenates shards in process order and stable-sorts each
// destination's messages by source, which is exactly the order the
// transport contract prescribes.
//
// # Supervision
//
// With Options.Supervise the coordinator also owns worker liveness. The
// barrier is the recovery unit: workers hold no solver state between
// barriers (everything lives on the coordinator side), so when a worker dies —
// detected by a heartbeat between barriers or a connection error/deadline
// during one — the supervisor tears the whole mesh down, respawns every
// worker under a new epoch, and replays the in-flight barrier from its
// checkpoint. Replaying the full barrier rather than one worker is not a
// shortcut: the peer-to-peer mesh collapses when any member dies (peers
// treat mid-stream connection errors as fatal), and because workers are
// stateless between barriers the replay is bit-identical, which the chaos
// differential suites pin. The per-barrier Checkpoint records the committed
// round counter and splitmix64 digests of the barrier's inputs and inbox
// shards; a replay re-digests its inputs and refuses to proceed if they
// changed; only a supervised transport computes the digests. Scheduled
// faults come from a transport.ChaosPlan: process kills
// executed by the coordinator at chosen barriers, and socket-level write
// faults injected inside the workers' mesh connections.
package tcp

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"sync"
	"time"

	"lapcc/internal/cc"
	"lapcc/internal/trace"
	"lapcc/internal/transport"
)

// Options configures the coordinator.
type Options struct {
	// Procs is the number of worker processes (default 4). Logical node v
	// is owned by process v mod Procs.
	Procs int
	// Binary is the lapccnode worker binary to exec, one process per
	// worker. Empty runs the workers as in-process goroutines speaking the
	// same protocol over real loopback sockets — same frames, same barrier,
	// no process isolation (used by tests and the benchmark suite).
	Binary string
	// Stderr receives the worker processes' stderr and the supervisor's
	// recovery log (default os.Stderr).
	Stderr io.Writer

	// DialTimeout bounds every worker-side dial (coordinator and mesh
	// peers) and the worker's mesh accept window (default 10s).
	DialTimeout time.Duration

	// Supervise enables crash recovery: worker death is detected
	// (heartbeat between barriers, connection errors and BarrierTimeout
	// during one), the worker set is respawned under a new epoch, and the
	// in-flight barrier is replayed from its checkpoint. Without it a dead
	// worker fails the run, as a transport error (the pre-supervision
	// behavior).
	Supervise bool
	// BarrierTimeout is the per-attempt deadline on every coordinator
	// connection during a barrier, so a hung worker or a stalled mesh
	// connection fails the attempt instead of stalling the coordinator
	// (default 60s when supervising; 0 means no deadline otherwise).
	BarrierTimeout time.Duration
	// HeartbeatInterval paces the ping/pong liveness probe between
	// barriers (default 1s when supervising; negative disables). The probe
	// never contends with a barrier: it skips any tick where a Deliver
	// holds the transport.
	HeartbeatInterval time.Duration
	// Chaos schedules deterministic faults: worker kills executed by the
	// coordinator before chosen barriers, and socket-level write faults
	// (resets, partial writes, stalls) injected inside the workers' mesh
	// connections. Recovery from every scheduled fault requires Supervise.
	Chaos *transport.ChaosPlan
}

func (o *Options) defaults() {
	if o.Procs <= 0 {
		o.Procs = 4
	}
	if o.Stderr == nil {
		o.Stderr = os.Stderr
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.Supervise {
		if o.BarrierTimeout <= 0 {
			o.BarrierTimeout = 60 * time.Second
		}
		if o.HeartbeatInterval == 0 {
			o.HeartbeatInterval = time.Second
		}
	}
}

const (
	// acceptTimeout bounds the coordinator's mesh bootstrap: all workers
	// must connect and report ready within it.
	acceptTimeout = 30 * time.Second
	// maxRestarts bounds mesh restarts per barrier when supervising.
	maxRestarts = 3
)

// owner maps a logical clique node to its worker process.
func owner(v int32, procs int) int32 { return v % int32(procs) }

// Checkpoint is the supervisor's snapshot of the last committed barrier. It
// is what a replay is checked against: the round counter the next barrier
// must use, digests of the inputs and the per-worker inbox shards, and the
// committed cumulative delivery counters (recovery re-runs a barrier, so
// only committed attempts count). Only a supervised transport digests its
// barriers: an unsupervised checkpoint carries a zero InDigest and no
// ShardDigests, and still counts Barriers and Stats.
type Checkpoint struct {
	// Barriers is the number of committed barriers — equally, the sequence
	// number the next barrier will use.
	Barriers uint64
	// Epoch is the mesh incarnation that committed the last barrier.
	Epoch uint64
	// InDigest fingerprints the last committed barrier's input sends.
	InDigest uint64
	// ShardDigests fingerprints each worker's inbox shard of the last
	// committed barrier, in process order.
	ShardDigests []uint64
	// Stats is the cumulative committed delivery counters.
	Stats cc.DeliveryStats
}

// RecoveryStats counts the supervisor's interventions.
type RecoveryStats struct {
	// Kills is the number of scheduled chaos kills executed.
	Kills uint64
	// Restarts is the number of full mesh restarts.
	Restarts uint64
	// Respawns is the number of workers spawned beyond the initial boot.
	Respawns uint64
	// ReplayedBarriers counts barrier replay attempts after a failed
	// delivery attempt.
	ReplayedBarriers uint64
	// HeartbeatFailures counts liveness probes that found a dead mesh.
	HeartbeatFailures uint64
}

// Transport is the coordinator side of the multi-process backend. It
// implements cc.Transport; Deliver calls serialize on an internal lock (one
// barrier at a time, matching the synchronous model).
type Transport struct {
	opts  Options
	procs int

	mu       sync.Mutex
	ln       net.Listener
	conns    []net.Conn
	rds      []*transport.Reader // per-worker frame readers of the current epoch
	cmds     []*exec.Cmd
	wg       sync.WaitGroup // in-process workers of the current epoch
	round    uint64
	epoch    uint64
	booted   bool // a boot has succeeded at least once
	meshDown bool
	closed   bool
	cum      cc.DeliveryStats // cumulative across committed rounds
	ckpt     Checkpoint
	rec      RecoveryStats
	killed   map[transport.Kill]bool
	stopHB   chan struct{}

	tracer     *trace.Tracer // distributed trace plane (nil: untraced)
	flight     *trace.Flight // crash flight recorder (nil: disabled)
	flightDump string        // JSONL dump path on unrecoverable failure

	// Barrier scratch, reused from one Deliver to the next under mu.
	wbuf    []byte            // Round frame encoding
	perProc [][]transport.Msg // each worker's sends
	dc      []int             // messages per destination
	inbox   transport.Inboxes // the returned inbox layout
	// Messages and payload words of each worker's inbox shard in the
	// last attempt, for the trace plane.
	shardMsgs, shardWords []int64
}

// New boots a coordinator and its worker processes and blocks until the full
// mesh is connected and every worker reported Ready.
func New(opts Options) (*Transport, error) {
	opts.defaults()
	if err := opts.Chaos.Validate(); err != nil {
		return nil, err
	}
	if opts.Chaos != nil {
		for _, k := range opts.Chaos.Kills {
			if k.Proc >= opts.Procs {
				return nil, fmt.Errorf("%w: kill targets worker %d of %d", transport.ErrBadChaosPlan, k.Proc, opts.Procs)
			}
		}
	}
	t := &Transport{
		opts:       opts,
		procs:      opts.Procs,
		killed:     make(map[transport.Kill]bool),
		stopHB:     make(chan struct{}),
		perProc:    make([][]transport.Msg, opts.Procs),
		shardMsgs:  make([]int64, opts.Procs),
		shardWords: make([]int64, opts.Procs),
	}
	if err := t.boot(); err != nil {
		t.Close()
		return nil, err
	}
	if opts.Supervise && opts.HeartbeatInterval > 0 {
		go t.heartbeatLoop(opts.HeartbeatInterval)
	}
	return t, nil
}

// SetTracer attaches the distributed trace plane: after every subsequent
// barrier commits, the coordinator adds to tr one "node-%d" subtree per
// worker, in ascending worker order, holding the traffic it sent that
// worker and read back from it, and supervision transitions become mark
// events. Workers record nothing. A nil tr detaches (the default; the
// barrier path then adds zero cost). Do not attach a per-request tracer to
// a transport shared across concurrent requests — the subtrees would
// interleave across requests.
func (t *Transport) SetTracer(tr *trace.Tracer) {
	t.mu.Lock()
	t.tracer = tr
	t.mu.Unlock()
}

// SetFlight attaches the flight recorder: transport events (barrier
// commits, kills, restarts, replays) are recorded into f, and on an
// unrecoverable failure the ring is dumped to dumpPath (empty: no file; the
// ring is still readable via Flight.Events/Handler). A nil f detaches.
func (t *Transport) SetFlight(f *trace.Flight, dumpPath string) {
	t.mu.Lock()
	t.flight = f
	t.flightDump = dumpPath
	t.mu.Unlock()
}

// dumpFlight writes the flight ring to the configured dump path; the
// unrecoverable-failure path. Called under mu.
func (t *Transport) dumpFlight() {
	if t.flight == nil || t.flightDump == "" {
		return
	}
	if err := t.flight.DumpFile(t.flightDump); err != nil {
		fmt.Fprintf(t.opts.Stderr, "tcp: writing flight dump: %v\n", err)
	} else {
		fmt.Fprintf(t.opts.Stderr, "tcp: flight dump written to %s\n", t.flightDump)
	}
}

// boot spawns the full worker set for the current epoch and bootstraps the
// mesh. Each epoch gets a fresh coordinator listener: closing the old one
// resets any stale worker still parked in its accept backlog, and a new
// address guarantees a leftover from the previous epoch can never join the
// new mesh. Called under mu (or before the transport is shared).
func (t *Transport) boot() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("tcp: coordinator listen: %w", err)
	}
	t.ln = ln
	coordAddr := ln.Addr().String()
	if t.booted {
		t.rec.Respawns += uint64(t.procs)
	}

	if t.opts.Binary != "" {
		t.cmds = make([]*exec.Cmd, t.procs)
		for i := 0; i < t.procs; i++ {
			args := []string{
				"-coord", coordAddr,
				"-id", strconv.Itoa(i),
				"-procs", strconv.Itoa(t.procs),
				"-dial-timeout", t.opts.DialTimeout.String(),
				"-epoch", strconv.FormatUint(t.epoch, 10),
			}
			if t.opts.Chaos.HasWriteFaults() {
				args = append(args, "-chaos", t.opts.Chaos.String())
			}
			cmd := exec.Command(t.opts.Binary, args...)
			cmd.Stderr = t.opts.Stderr
			if err := cmd.Start(); err != nil {
				return fmt.Errorf("tcp: starting worker %d: %w", i, err)
			}
			t.cmds[i] = cmd
		}
	} else {
		cfg := NodeConfig{DialTimeout: t.opts.DialTimeout, Epoch: t.epoch, Chaos: t.opts.Chaos}
		for i := 0; i < t.procs; i++ {
			t.wg.Add(1)
			go func(id int) {
				defer t.wg.Done()
				if err := RunNodeWith(coordAddr, id, t.procs, cfg); err != nil {
					fmt.Fprintf(t.opts.Stderr, "tcp: in-process worker %d: %v\n", id, err)
				}
			}(i)
		}
	}

	if err := t.bootstrap(); err != nil {
		return err
	}
	t.booted = true
	t.meshDown = false
	return nil
}

// bootstrap accepts the worker connections, distributes the mesh address
// table, and waits for every worker's Ready.
func (t *Transport) bootstrap() error {
	t.conns = make([]net.Conn, t.procs)
	t.rds = make([]*transport.Reader, t.procs)
	brs := make([]*bufio.Reader, t.procs)
	addrs := make([]string, t.procs)
	deadline := time.Now().Add(acceptTimeout)
	for i := 0; i < t.procs; i++ {
		if l, ok := t.ln.(*net.TCPListener); ok {
			l.SetDeadline(deadline)
		}
		conn, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("tcp: accepting worker %d/%d: %w", i, t.procs, err)
		}
		rd := bufio.NewReader(conn)
		f, err := transport.ReadFrame(rd)
		if err != nil {
			return fmt.Errorf("tcp: worker hello: %w", err)
		}
		if f.Type != transport.FrameHello || f.Node < 0 || int(f.Node) >= t.procs || t.conns[f.Node] != nil {
			return fmt.Errorf("tcp: bad hello (type %d, node %d)", f.Type, f.Node)
		}
		t.conns[f.Node] = conn
		brs[f.Node] = rd
		addrs[f.Node] = f.Addr
	}
	for i, conn := range t.conns {
		if _, err := transport.WriteFrame(conn, &transport.Frame{Type: transport.FramePeers, Addrs: addrs}); err != nil {
			return fmt.Errorf("tcp: sending peer table to worker %d: %w", i, err)
		}
	}
	for i := range t.conns {
		f, err := transport.ReadFrame(brs[i])
		if err != nil {
			return fmt.Errorf("tcp: waiting for worker %d ready: %w", i, err)
		}
		if f.Type == transport.FrameError {
			return fmt.Errorf("tcp: worker %d failed during mesh bootstrap: %s", i, f.Addr)
		}
		if f.Type != transport.FrameReady {
			return fmt.Errorf("tcp: worker %d sent frame type %d instead of ready", i, f.Type)
		}
		t.rds[i] = transport.NewReader(brs[i])
		t.rds[i].Recycle = true
	}
	return nil
}

// teardownWorkers kills and reaps the current epoch's worker set. Closing
// the coordinator connections (and the listener, which resets any worker
// still in its accept backlog) is what unblocks live workers: they exit on
// the resulting read errors, so the in-process WaitGroup drains. Called
// under mu.
func (t *Transport) teardownWorkers() {
	for i, conn := range t.conns {
		if conn != nil {
			conn.Close()
			t.conns[i] = nil
		}
	}
	if t.ln != nil {
		t.ln.Close()
		t.ln = nil
	}
	for i, cmd := range t.cmds {
		if cmd == nil {
			continue
		}
		cmd.Process.Kill()
		cmd.Wait()
		t.cmds[i] = nil
	}
	t.cmds = nil
	t.wg.Wait()
	t.conns, t.rds = nil, nil
}

// restartMesh tears the current worker set down and boots a fresh one under
// the next epoch. Called under mu.
func (t *Transport) restartMesh() error {
	t.rec.Restarts++
	t.tracer.Mark("mesh-teardown", t.round, t.epoch, -1)
	t.flight.Record(trace.FlightEvent{Kind: "mesh-teardown", Barrier: t.round, Epoch: t.epoch, Node: -1})
	t.teardownWorkers()
	t.epoch++
	fmt.Fprintf(t.opts.Stderr, "tcp: restarting mesh (epoch %d, restart %d)\n", t.epoch, t.rec.Restarts)
	if err := t.boot(); err != nil {
		return err
	}
	t.tracer.Mark("mesh-respawn", t.round, t.epoch, -1)
	t.flight.Record(trace.FlightEvent{Kind: "mesh-respawn", Barrier: t.round, Epoch: t.epoch, Node: -1})
	return nil
}

// executeKills runs the chaos plan's scheduled kills for a barrier, each
// exactly once (a replayed barrier does not re-kill). Real worker processes
// are SIGKILLed; in-process workers have their coordinator connection
// severed, which collapses them the same way. Called under mu.
func (t *Transport) executeKills(rc uint64) {
	for _, p := range t.opts.Chaos.KillsAt(rc) {
		k := transport.Kill{Barrier: rc, Proc: p}
		if p >= t.procs || t.killed[k] {
			continue
		}
		t.killed[k] = true
		t.rec.Kills++
		t.tracer.Mark("chaos-kill", rc, t.epoch, p)
		t.flight.Record(trace.FlightEvent{Kind: "kill", Barrier: rc, Epoch: t.epoch, Node: p})
		fmt.Fprintf(t.opts.Stderr, "tcp: chaos: killing worker %d before barrier %d\n", p, rc)
		if t.cmds != nil && t.cmds[p] != nil {
			t.cmds[p].Process.Kill()
		} else if t.conns != nil && t.conns[p] != nil {
			t.conns[p].Close()
		}
	}
}

// splitmix64 is the same finalizer transport.ChaosPlan and cc.FaultPlan use;
// checkpoint digests inherit its replayability.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// digestMsgs folds a message list into a running digest: endpoints, length,
// and every payload word.
func digestMsgs(h uint64, msgs []transport.Msg) uint64 {
	for _, m := range msgs {
		h = splitmix64(h ^ uint64(uint32(m.From))<<32 ^ uint64(uint32(m.To)))
		h = splitmix64(h ^ uint64(len(m.Data)))
		for _, w := range m.Data {
			h = splitmix64(h ^ uint64(w))
		}
	}
	return h
}

// digestRound fingerprints one barrier's input: every process's send list,
// in process order.
func digestRound(perProc [][]transport.Msg) uint64 {
	h := splitmix64(0x5ca1ab1e0ddba11)
	for p, msgs := range perProc {
		h = splitmix64(h ^ uint64(p))
		h = digestMsgs(h, msgs)
	}
	return h
}

// splitSends validates a round's sends, counts them per destination into
// t.dc, and partitions them by owning process into t.perProc, preserving the
// global ascending-source order within each process's list. Called under
// mu.
func (t *Transport) splitSends(n int, out []cc.Outbox) (total int, err error) {
	if cap(t.dc) < n {
		t.dc = make([]int, n)
	}
	t.dc = t.dc[:n]
	if total, err = transport.CountSends(n, out, t.dc); err != nil {
		return 0, err
	}
	for p := range t.perProc {
		t.perProc[p] = t.perProc[p][:0]
	}
	for _, ob := range out {
		for _, om := range ob.Msgs {
			p := owner(om.From, t.procs)
			t.perProc[p] = append(t.perProc[p], transport.Msg{From: om.From, To: om.To, Data: ob.Data(om)})
		}
	}
	return total, nil
}

// Deliver implements cc.Transport: one synchronous barrier across the worker
// processes. The round argument is informational; the coordinator
// sequences barriers with its own monotone counter,
// which advances only when the barrier commits — a supervised replay reuses
// the same sequence number. Under Options.Supervise a failed attempt tears
// the mesh down, respawns the workers, and replays the barrier, up to
// maxRestarts times.
func (t *Transport) Deliver(_ int, n int, out []cc.Outbox) ([][]cc.Message, cc.DeliveryStats, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, cc.DeliveryStats{}, errors.New("tcp: transport is closed")
	}
	rc := t.round
	total, err := t.splitSends(n, out)
	if err != nil {
		return nil, cc.DeliveryStats{}, err
	}
	var inDigest uint64
	if t.opts.Supervise {
		inDigest = digestRound(t.perProc)
	}

	t.executeKills(rc)

	var lastErr error
	for attempt := 0; ; attempt++ {
		if t.meshDown && t.opts.Supervise {
			if rerr := t.restartMesh(); rerr != nil {
				t.flight.Record(trace.FlightEvent{Kind: "unrecoverable", Barrier: rc, Epoch: t.epoch, Node: -1, Detail: rerr.Error()})
				t.dumpFlight()
				return nil, cc.DeliveryStats{}, fmt.Errorf("tcp: restarting mesh for barrier %d: %w", rc, rerr)
			}
			if attempt > 0 {
				// Replaying a failed attempt: the checkpoint contract says
				// the inputs must be exactly what the failed attempt saw.
				if d := digestRound(t.perProc); d != inDigest {
					t.flight.Record(trace.FlightEvent{Kind: "replay-digest-mismatch", Barrier: rc, Epoch: t.epoch, Node: -1})
					t.dumpFlight()
					return nil, cc.DeliveryStats{}, fmt.Errorf("tcp: barrier %d input digest changed across replay (%#x != %#x)", rc, d, inDigest)
				}
				t.rec.ReplayedBarriers++
				t.tracer.Mark("replay", rc, t.epoch, -1)
				t.flight.Record(trace.FlightEvent{Kind: "replay", Barrier: rc, Epoch: t.epoch, Node: -1})
			}
		}
		inboxes, stats, shardDigests, err := t.deliverOnce(rc, n, total)
		if err == nil {
			// Only the committed attempt reaches the trace, so the
			// timeline stays deterministic for a fixed kill schedule.
			if t.tracer != nil {
				t.traceNodes(rc)
			}
			if attempt > 0 {
				t.tracer.Mark("replay-verified", rc, t.epoch, -1)
				t.flight.Record(trace.FlightEvent{Kind: "replay-verified", Barrier: rc, Epoch: t.epoch, Node: -1})
			}
			t.commit(rc, inDigest, shardDigests, stats)
			t.flight.Record(trace.FlightEvent{
				Kind: "barrier-commit", Barrier: rc, Epoch: t.epoch, Node: -1,
				Messages: stats.Messages, Frames: stats.Frames,
			})
			return inboxes, stats, nil
		}
		lastErr = err
		t.meshDown = true
		// The mark carries only the barrier/epoch position — error text is
		// wall-clock-shaped (which syscall lost the race varies) and
		// belongs in the flight recorder.
		t.tracer.Mark("barrier-failed", rc, t.epoch, -1)
		t.flight.Record(trace.FlightEvent{Kind: "barrier-attempt-failed", Barrier: rc, Epoch: t.epoch, Node: -1, Detail: err.Error()})
		if !t.opts.Supervise {
			return nil, cc.DeliveryStats{}, lastErr
		}
		if attempt >= maxRestarts {
			t.flight.Record(trace.FlightEvent{Kind: "unrecoverable", Barrier: rc, Epoch: t.epoch, Node: -1, Detail: lastErr.Error()})
			t.dumpFlight()
			return nil, cc.DeliveryStats{}, fmt.Errorf("tcp: barrier %d failed after %d mesh restarts: %w", rc, maxRestarts, lastErr)
		}
		fmt.Fprintf(t.opts.Stderr, "tcp: barrier %d attempt %d failed: %v\n", rc, attempt, lastErr)
	}
}

// readWorker reads one frame from a worker's coordinator connection into
// f, surfacing a FrameError as the worker's own failure description.
func (t *Transport) readWorker(p int, rc uint64, f *transport.Frame) error {
	if err := t.rds[p].Read(f); err != nil {
		return fmt.Errorf("tcp: reading from worker %d in round %d: %w", p, rc, err)
	}
	if f.Type == transport.FrameError {
		return fmt.Errorf("tcp: worker %d failed in round %d: %s", p, rc, f.Addr)
	}
	return nil
}

// deliverOnce runs one delivery attempt for one barrier against the current
// mesh: dispatch the Round frames, collect every worker's inbox shard, and
// assemble the per-destination inboxes. With a BarrierTimeout every
// coordinator connection carries an absolute deadline for the attempt, so a
// hung worker surfaces as an error here instead of stalling the
// coordinator.
//
// The inbox layout and every reader's payload arena are reused by the next
// attempt or Deliver, as the cc.Transport contract allows: a delivery is
// valid until the next one.
func (t *Transport) deliverOnce(rc uint64, n, total int) ([][]cc.Message, cc.DeliveryStats, []uint64, error) {
	if t.opts.BarrierTimeout > 0 {
		deadline := time.Now().Add(t.opts.BarrierTimeout)
		for _, conn := range t.conns {
			conn.SetDeadline(deadline)
		}
		defer func() {
			for _, conn := range t.conns {
				if conn != nil {
					conn.SetDeadline(time.Time{})
				}
			}
		}()
	}
	for p := 0; p < t.procs; p++ {
		var err error
		t.wbuf, err = transport.Append(t.wbuf[:0], &transport.Frame{
			Type: transport.FrameRound, Round: rc, Msgs: t.perProc[p],
		})
		if err == nil {
			_, err = t.conns[p].Write(t.wbuf)
		}
		if err != nil {
			return nil, cc.DeliveryStats{}, nil, fmt.Errorf("tcp: sending round %d to worker %d: %w", rc, p, err)
		}
	}

	// Collect every worker's inbox shard, assembling as they come: process
	// order first, then a stable per-destination sort by source. Messages
	// sharing (source, destination) travel in one chunk stream, so
	// stability preserves their send order — together this is exactly the
	// order the transport contract prescribes. Shards arrive in any order
	// across connections but reading sequentially is fine: TCP buffers
	// them.
	var shardDigests []uint64
	if t.opts.Supervise {
		shardDigests = make([]uint64, t.procs)
	}
	for _, rd := range t.rds {
		rd.Release()
	}
	inboxes := t.inbox.Layout(t.dc)
	stats := cc.DeliveryStats{Messages: int64(total)}
	got := 0
	var f transport.Frame
	for p := 0; p < t.procs; p++ {
		if err := t.readWorker(p, rc, &f); err != nil {
			return nil, cc.DeliveryStats{}, nil, err
		}
		if f.Type != transport.FrameInbox || f.Round != rc {
			return nil, cc.DeliveryStats{}, nil, fmt.Errorf("tcp: worker %d sent frame type %d (round %d) instead of inbox for round %d", p, f.Type, f.Round, rc)
		}
		if shardDigests != nil {
			shardDigests[p] = digestMsgs(splitmix64(uint64(p)), f.Msgs)
		}
		stats.Frames += int64(f.Stats.Frames)
		stats.FrameBytes += int64(f.Stats.FrameBytes)
		var words int64
		for _, wm := range f.Msgs {
			if wm.To < 0 || int(wm.To) >= n {
				return nil, cc.DeliveryStats{}, nil, fmt.Errorf("tcp: worker %d delivered recipient %d out of range", p, wm.To)
			}
			inboxes[wm.To] = append(inboxes[wm.To], cc.Message{From: int(wm.From), Data: wm.Data})
			words += int64(len(wm.Data))
			got++
		}
		t.shardMsgs[p], t.shardWords[p] = int64(len(f.Msgs)), words
	}
	if got != total {
		return nil, cc.DeliveryStats{}, nil, fmt.Errorf("tcp: round %d delivered %d of %d messages", rc, got, total)
	}
	for _, msgs := range inboxes {
		slices.SortStableFunc(msgs, func(a, b cc.Message) int { return cmp.Compare(a.From, b.From) })
	}
	return inboxes, stats, shardDigests, nil
}

// traceNodes adds each worker's "node-%d" subtree for committed barrier
// rc, in ascending worker order: a barrier span with the messages and
// payload words of the Round frame the coordinator sent the worker and of
// the inbox shard it read back. What a worker sends and receives is fixed
// by the barrier's input and output, so the frames the coordinator already
// writes and reads hold all of it. Called under mu.
func (t *Transport) traceNodes(rc uint64) {
	for p, sends := range t.perProc {
		var words int64
		for _, m := range sends {
			words += int64(len(m.Data))
		}
		node := t.tracer.Startf("node-%d", p)
		t.tracer.Startf("barrier-%d", rc)
		t.tracer.LinkTraffic("sent", int64(len(sends)), words)
		t.tracer.LinkTraffic("shard", t.shardMsgs[p], t.shardWords[p])
		node.End() // closes the barrier span first
	}
}

// commit seals a barrier: advance the round counter, fold the attempt's
// stats into the committed totals, and snapshot the checkpoint. Called
// under mu.
func (t *Transport) commit(rc, inDigest uint64, shardDigests []uint64, stats cc.DeliveryStats) {
	t.round = rc + 1
	t.cum.Messages += stats.Messages
	t.cum.Frames += stats.Frames
	t.cum.FrameBytes += stats.FrameBytes
	t.ckpt = Checkpoint{
		Barriers:     rc + 1,
		Epoch:        t.epoch,
		InDigest:     inDigest,
		ShardDigests: shardDigests,
		Stats:        t.cum,
	}
}

// heartbeatLoop probes worker liveness between barriers. It never contends
// with a Deliver: a tick that cannot take the lock is skipped (the barrier
// itself detects failures while it runs). On a failed probe the mesh is
// restarted eagerly so the next barrier starts against live workers; if the
// restart itself fails the mesh stays down and Deliver retries it.
func (t *Transport) heartbeatLoop(interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-t.stopHB:
			return
		case <-tick.C:
		}
		if !t.mu.TryLock() {
			continue
		}
		if t.closed {
			t.mu.Unlock()
			return
		}
		if !t.meshDown {
			if err := t.pingAll(interval); err != nil {
				t.rec.HeartbeatFailures++
				t.meshDown = true
				// Flight only, no trace mark: the heartbeat races the
				// solver's barriers, so a mark here would break the traced
				// stream's byte determinism.
				t.flight.Record(trace.FlightEvent{Kind: "heartbeat-failure", Barrier: t.round, Epoch: t.epoch, Node: -1, Detail: err.Error()})
				fmt.Fprintf(t.opts.Stderr, "tcp: heartbeat: %v\n", err)
				if rerr := t.restartMesh(); rerr != nil {
					fmt.Fprintf(t.opts.Stderr, "tcp: mesh restart after heartbeat failure: %v\n", rerr)
				}
			}
		}
		t.mu.Unlock()
	}
}

// pingAll sends one Ping to every worker and reads the Pongs back, under a
// deadline. Called under mu, strictly between barriers, so the ping/pong
// exchange is the only traffic on the coordinator connections.
func (t *Transport) pingAll(interval time.Duration) error {
	timeout := interval
	if timeout < time.Second {
		timeout = time.Second
	}
	deadline := time.Now().Add(timeout)
	for p := 0; p < t.procs; p++ {
		if t.conns[p] == nil {
			return fmt.Errorf("tcp: worker %d has no connection", p)
		}
		t.conns[p].SetDeadline(deadline)
	}
	defer func() {
		for _, conn := range t.conns {
			if conn != nil {
				conn.SetDeadline(time.Time{})
			}
		}
	}()
	for p := 0; p < t.procs; p++ {
		if _, err := transport.WriteFrame(t.conns[p], &transport.Frame{Type: transport.FramePing}); err != nil {
			return fmt.Errorf("tcp: ping to worker %d: %w", p, err)
		}
	}
	var f transport.Frame
	for p := 0; p < t.procs; p++ {
		if err := t.rds[p].Read(&f); err != nil {
			return fmt.Errorf("tcp: pong from worker %d: %w", p, err)
		}
		if f.Type != transport.FramePong {
			return fmt.Errorf("tcp: worker %d answered ping with frame type %d", p, f.Type)
		}
	}
	return nil
}

// Stats returns the cumulative delivery counters across all committed
// rounds.
func (t *Transport) Stats() cc.DeliveryStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cum
}

// Recovery returns the supervisor's intervention counters.
func (t *Transport) Recovery() RecoveryStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rec
}

// Checkpoint returns the snapshot of the last committed barrier.
func (t *Transport) Checkpoint() Checkpoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	ck := t.ckpt
	ck.ShardDigests = append([]uint64(nil), t.ckpt.ShardDigests...)
	return ck
}

// Epoch returns the current mesh incarnation (0 before any restart).
func (t *Transport) Epoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// Close shuts the workers down and releases every connection. Safe to call
// more than once and on a partially constructed transport.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	if t.stopHB != nil {
		close(t.stopHB)
	}
	conns, cmds, ln := t.conns, t.cmds, t.ln
	t.mu.Unlock()

	for _, conn := range conns {
		if conn != nil {
			transport.WriteFrame(conn, &transport.Frame{Type: transport.FrameShutdown})
		}
	}
	var firstErr error
	for i, cmd := range cmds {
		if cmd == nil {
			continue
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("tcp: worker %d exit: %w", i, err)
			}
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
			if firstErr == nil {
				firstErr = fmt.Errorf("tcp: worker %d did not exit; killed", i)
			}
		}
	}
	for _, conn := range conns {
		if conn != nil {
			conn.Close()
		}
	}
	if ln != nil {
		ln.Close()
	}
	t.wg.Wait() // in-process workers exit on conn close/shutdown
	return firstErr
}

// Procs returns the worker process count.
func (t *Transport) Procs() int { return t.procs }
