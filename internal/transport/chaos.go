package transport

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosPlan describes a deterministic socket-level fault schedule for the
// multi-process TCP backend: the layer *below* the transport, complementing
// cc.FaultPlan which injects *above* it. Where a FaultPlan decides the fate
// of logical messages the transport already delivered, a ChaosPlan attacks the
// machinery that moves the bytes — mesh connections are reset mid-stream,
// frame writes are fragmented or stalled, and whole worker processes are
// killed at chosen barriers. The supervised coordinator
// (internal/transport/tcp with Options.Supervise) must recover from all of
// it with bit-identical output, which is what the chaos differential suites
// assert.
//
// Every decision is a pure function of (Seed, epoch, connection endpoints,
// write index) in the splitmix64 idiom of cc.FaultPlan, so a plan replays
// identically across runs. The epoch — the coordinator's mesh incarnation
// counter, incremented on every supervised restart — is mixed in so a
// respawned mesh does not deterministically re-trigger the reset that
// killed its predecessor; connection resets additionally fire only in
// epochs below ResetEpochs (default 1), guaranteeing the run converges.
type ChaosPlan struct {
	// Seed drives every injection decision. Two plans with equal rates and
	// seeds inject exactly the same faults.
	Seed uint64
	// Reset, Partial, Stall are per-frame-write fault probabilities in
	// [0, 1]. At most one applies to a write; when the rates sum past 1 the
	// plan is invalid. Precedence of the single uniform draw: reset, then
	// partial, then stall.
	//
	// Reset closes the connection under the writer mid-protocol (the far
	// side observes ECONNRESET/EOF). Partial fragments the write into two
	// socket writes, exercising the reader's reassembly. Stall delays the
	// write by StallDelay, exercising barriers that wait on a slow peer.
	Reset   float64
	Partial float64
	Stall   float64
	// StallDelay is how long a stalled write waits (default 5ms, at most
	// maxStallDelay).
	StallDelay time.Duration
	// ResetEpochs bounds reset injection to mesh epochs < ResetEpochs
	// (default 1: only the first incarnation is reset). Without a bound a
	// reset rate would collapse every respawned mesh too and the run could
	// never converge.
	ResetEpochs int
	// Kills schedules worker-process kills: before dispatching barrier
	// Kill.Barrier, the supervisor SIGKILLs worker Kill.Proc (in-process
	// workers have their coordinator connection severed instead). Each
	// entry fires exactly once.
	Kills []Kill
}

// Kill schedules the death of one worker process immediately before the
// coordinator dispatches the given barrier.
type Kill struct {
	Barrier uint64
	Proc    int
}

// maxStallDelay bounds StallDelay. A stalled write sleeps for the whole
// delay whatever the barrier timeout, and a mesh teardown waits for every
// in-process worker, so a supervised coordinator holds its lock (and a
// daemon its only admission slot) for as long as the delay allows.
const maxStallDelay = time.Second

// ErrBadChaosPlan reports an invalid chaos plan.
var ErrBadChaosPlan = errors.New("transport: invalid chaos plan")

// ErrChaosReset is returned by a chaos-wrapped connection whose write was
// chosen for a reset; the connection is closed before the error returns.
var ErrChaosReset = errors.New("transport: chaos-injected connection reset")

// Validate checks the plan's rates and kill schedule.
func (p *ChaosPlan) Validate() error {
	if p == nil {
		return nil
	}
	for _, r := range [...]float64{p.Reset, p.Partial, p.Stall} {
		if r < 0 || r > 1 || r != r {
			return fmt.Errorf("%w: rate %v outside [0,1]", ErrBadChaosPlan, r)
		}
	}
	if sum := p.Reset + p.Partial + p.Stall; sum > 1 {
		return fmt.Errorf("%w: rates sum to %v > 1", ErrBadChaosPlan, sum)
	}
	if p.StallDelay < 0 || p.StallDelay > maxStallDelay {
		return fmt.Errorf("%w: StallDelay %v outside [0, %v]", ErrBadChaosPlan, p.StallDelay, maxStallDelay)
	}
	if p.ResetEpochs < 0 {
		return fmt.Errorf("%w: ResetEpochs %d", ErrBadChaosPlan, p.ResetEpochs)
	}
	for _, k := range p.Kills {
		if k.Proc < 0 {
			return fmt.Errorf("%w: kill %+v", ErrBadChaosPlan, k)
		}
	}
	return nil
}

func (p *ChaosPlan) stallDelay() time.Duration {
	if p.StallDelay > 0 {
		return p.StallDelay
	}
	return 5 * time.Millisecond
}

func (p *ChaosPlan) resetEpochs() int {
	if p.ResetEpochs > 0 {
		return p.ResetEpochs
	}
	return 1
}

// KillsAt returns the workers scheduled to die before the given barrier, in
// ascending order.
func (p *ChaosPlan) KillsAt(barrier uint64) []int {
	if p == nil {
		return nil
	}
	var procs []int
	for _, k := range p.Kills {
		if k.Barrier == barrier {
			procs = append(procs, k.Proc)
		}
	}
	sort.Ints(procs)
	return procs
}

// HasWriteFaults reports whether the plan injects at the write level (so
// callers can skip wrapping connections for a kill-only plan).
func (p *ChaosPlan) HasWriteFaults() bool {
	return p != nil && (p.Reset > 0 || p.Partial > 0 || p.Stall > 0)
}

// splitmix64 is the finalizer of the SplitMix64 generator — the same
// bijective mixer cc.FaultPlan uses, so chaos decisions inherit its
// statistical quality and its replayability.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns a uniform value in [0, 1) for one write decision.
func (p *ChaosPlan) draw(epoch uint64, self, peer int32, write uint64) float64 {
	h := splitmix64(p.Seed ^ 0x7c3a9d1e5b82f604)
	h = splitmix64(h ^ epoch)
	h = splitmix64(h ^ uint64(uint32(self))<<32 ^ uint64(uint32(peer)))
	h = splitmix64(h ^ write)
	return float64(h>>11) / float64(1<<53)
}

// chaosAction is the fate of one write.
type chaosAction uint8

const (
	chaosNone chaosAction = iota
	chaosReset
	chaosPartial
	chaosStall
)

// action decides the fate of the write-th frame write on the (self, peer)
// connection in the given mesh epoch.
func (p *ChaosPlan) action(epoch uint64, self, peer int32, write uint64) chaosAction {
	u := p.draw(epoch, self, peer, write)
	if u < p.Reset {
		if int(epoch) < p.resetEpochs() {
			return chaosReset
		}
		return chaosNone
	}
	u -= p.Reset
	if u < p.Partial {
		return chaosPartial
	}
	u -= p.Partial
	if u < p.Stall {
		return chaosStall
	}
	return chaosNone
}

// Process-wide injection counters, incremented as chaosConn executes each
// fate. With in-process workers (the default for lapccd and the test
// harnesses) every mesh connection lives in this process, so the counters
// see the whole clique; with -transport tcp,bin=1 each worker counts its
// own injections and the coordinator's figures cover only its side.
var (
	chaosResets   atomic.Uint64
	chaosPartials atomic.Uint64
	chaosStalls   atomic.Uint64
)

// ChaosCounters returns the number of connection resets, fragmented
// writes, and stalled writes this process has injected since start.
func ChaosCounters() (resets, partials, stalls uint64) {
	return chaosResets.Load(), chaosPartials.Load(), chaosStalls.Load()
}

// chaosConn injects the plan's write-level faults on one connection. Reads
// pass through untouched: a reset injected by the writer side surfaces on
// the peer as a genuine connection error.
type chaosConn struct {
	net.Conn
	plan       *ChaosPlan
	epoch      uint64
	self, peer int32

	mu    sync.Mutex
	write uint64
}

// WrapConn returns conn with the plan's write-level faults injected, keyed
// by (epoch, self, peer). A nil plan or one without write faults returns
// conn unchanged.
func (p *ChaosPlan) WrapConn(conn net.Conn, epoch uint64, self, peer int32) net.Conn {
	if !p.HasWriteFaults() {
		return conn
	}
	return &chaosConn{Conn: conn, plan: p, epoch: epoch, self: self, peer: peer}
}

func (c *chaosConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	idx := c.write
	c.write++
	c.mu.Unlock()
	switch c.plan.action(c.epoch, c.self, c.peer, idx) {
	case chaosReset:
		chaosResets.Add(1)
		c.Conn.Close()
		return 0, fmt.Errorf("%w (conn %d->%d, epoch %d, write %d)",
			ErrChaosReset, c.self, c.peer, c.epoch, idx)
	case chaosPartial:
		chaosPartials.Add(1)
		if len(b) > 1 {
			half := len(b) / 2
			n, err := c.Conn.Write(b[:half])
			if err != nil {
				return n, err
			}
			m, err := c.Conn.Write(b[half:])
			return n + m, err
		}
	case chaosStall:
		chaosStalls.Add(1)
		time.Sleep(c.plan.stallDelay())
	}
	return c.Conn.Write(b)
}

// ParseChaosPlan parses the -chaos flag syntax: comma-separated key=value
// pairs.
//
//	seed=7,reset=0.002,partial=0.05,stall=0.01,stalldelay=5ms,epochs=1,kill=6:1,kill=20:2
//
// kill=B:P kills worker P before barrier B and may repeat. An empty spec
// returns (nil, nil).
func ParseChaosPlan(spec string) (*ChaosPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &ChaosPlan{}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("%w: malformed option %q (want key=value)", ErrBadChaosPlan, kv)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseUint(v, 10, 64)
		case "reset":
			p.Reset, err = strconv.ParseFloat(v, 64)
		case "partial":
			p.Partial, err = strconv.ParseFloat(v, 64)
		case "stall":
			p.Stall, err = strconv.ParseFloat(v, 64)
		case "stalldelay":
			p.StallDelay, err = time.ParseDuration(v)
		case "epochs":
			p.ResetEpochs, err = strconv.Atoi(v)
		case "kill":
			b, pr, ok := strings.Cut(v, ":")
			if !ok {
				return nil, fmt.Errorf("%w: kill %q (want barrier:proc)", ErrBadChaosPlan, v)
			}
			var kill Kill
			kill.Barrier, err = strconv.ParseUint(b, 10, 64)
			if err == nil {
				kill.Proc, err = strconv.Atoi(pr)
			}
			p.Kills = append(p.Kills, kill)
		default:
			return nil, fmt.Errorf("%w: unknown option %q", ErrBadChaosPlan, k)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: bad %s value %q: %v", ErrBadChaosPlan, k, v, err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// String renders the plan in ParseChaosPlan syntax (the canonical form: the
// coordinator uses it to hand the plan to spawned worker processes).
func (p *ChaosPlan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	add("seed=" + strconv.FormatUint(p.Seed, 10))
	if p.Reset > 0 {
		add("reset=" + strconv.FormatFloat(p.Reset, 'g', -1, 64))
	}
	if p.Partial > 0 {
		add("partial=" + strconv.FormatFloat(p.Partial, 'g', -1, 64))
	}
	if p.Stall > 0 {
		add("stall=" + strconv.FormatFloat(p.Stall, 'g', -1, 64))
	}
	if p.StallDelay > 0 {
		add("stalldelay=" + p.StallDelay.String())
	}
	if p.ResetEpochs > 0 {
		add("epochs=" + strconv.Itoa(p.ResetEpochs))
	}
	for _, k := range p.Kills {
		add(fmt.Sprintf("kill=%d:%d", k.Barrier, k.Proc))
	}
	return strings.Join(parts, ",")
}
