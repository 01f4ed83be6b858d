// Package euler implements the deterministic Eulerian-orientation algorithm
// of Theorem 1.4: given a graph in which every vertex has even degree,
// orient every edge so that each vertex has equal in- and out-degree, in
// O(log n log* n) congested-clique rounds.
//
// # Algorithm
//
// Following the paper, each vertex internally pairs its incident edges,
// which induces an implicit decomposition of the edge set into closed walks.
// The simulation works on *directed states*: state 2e+1 represents the
// traversal of edge e from e.U into e.V (owned by clique node e.V), state
// 2e+0 the reverse (owned by e.U). The pairing defines a successor
// permutation on the 2m states whose orbits are directed cycles; every
// undirected closed walk appears as two mirror-image directed cycles, and
// the two are always distinct (a directed cycle containing both states of
// one edge would force an edge to be paired with itself).
//
// Each iteration 3-colors the current rings with Cole-Vishkin (O(log* n)
// rounds, package ccalgo), derives a maximal matching, marks the higher-id
// endpoint of every matched pair (so at most half the states survive and at
// most 3 consecutive states are unmarked), and contracts unmarked runs by
// relaying probes over at most 4 hops of batched Lenzen routing. After
// O(log n) iterations every ring is a single state — the leader, which
// knows the accumulated traversal cost of its directed cycle. Orientation
// decisions flow back down the contraction tree, and a final per-edge
// exchange between the two mirror states resolves, for every edge
// consistently, which of the two directed cycles' traversal directions to
// adopt.
//
// # Costs
//
// The optional per-edge signed cost steers the choice between the two
// traversal directions: orienting edge e as U->V contributes +dirCost[e],
// as V->U contributes -dirCost[e], and the chosen orientation makes every
// cycle's total contribution non-positive. This is exactly the guarantee
// Cohen's flow rounding (Lemma 4.2) needs; passing nil costs yields a plain
// Eulerian orientation.
package euler

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"lapcc/internal/cc"
	"lapcc/internal/ccalgo"
	"lapcc/internal/graph"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/trace"
)

// ErrNotEulerian reports a vertex of odd degree.
var ErrNotEulerian = errors.New("euler: graph has a vertex of odd degree")

// maxProbeHops bounds the relay length during deterministic contraction:
// runs of unmarked states have length at most 3, so a probe reaches the
// next marked state in at most 4 hops.
const maxProbeHops = 4

// Mode selects the marking strategy of step 2a.
type Mode int

// Marking modes.
const (
	// Deterministic marks via Cole-Vishkin maximal matching: O(log* n)
	// rounds per iteration, unmarked runs of length at most 3 (the
	// Theorem 1.4 algorithm).
	Deterministic Mode = iota + 1
	// Randomized marks each state independently with probability 1/2 (the
	// paper's remark after Theorem 1.4): no coloring rounds, but unmarked
	// runs are only O(log n) with high probability, so probes relay
	// further; probes that exceed the cap simply leave their ring segment
	// uncontracted for one iteration.
	Randomized
)

// Options configures Orient.
type Options struct {
	// Mode defaults to Deterministic.
	Mode Mode
	// Seed drives the Randomized mode's marking.
	Seed int64
	// Ledger, if non-nil, records the round costs of the run.
	Ledger *rounds.Ledger
	// Trace, if non-nil, receives hierarchical span and cost events for
	// this call (see internal/trace); a nil tracer records nothing and
	// costs nothing.
	Trace *trace.Tracer
	// Faults, if non-nil, routes every network primitive of the run —
	// probes, replies, expansion, mirror exchange, and the Cole-Vishkin
	// exchanges inside the ring matching — through the reliable
	// retransmission layer under the given fault plan. The orientation is
	// bit-identical to a fault-free run; only the round cost grows.
	Faults *cc.FaultPlan
	// Transport, if non-nil, physically carries every routing step of the
	// run through the given delivery backend (see cc.Transport); nil keeps
	// the in-process path. The orientation is bit-identical either way.
	Transport cc.Transport
	// Budget, if non-nil, is checked at every contraction iteration;
	// exhaustion aborts with an error unwrapping to
	// rounds.ErrBudgetExceeded.
	Budget *rounds.Budget
	// Metrics, if non-nil, receives live counters (orientations,
	// contraction iterations, dead probes) and a mirror of the ledger's
	// cost stream. A nil registry records nothing and costs nothing.
	Metrics *metrics.Registry
}

// Stats reports the execution of one orientation.
type Stats struct {
	// Stats carries the shared round accounting of the call.
	rounds.Stats
	// Iterations is the number of contraction iterations (O(log n)).
	Iterations int
	// States is the number of directed states (2m).
	States int
	// DeadProbes counts randomized-mode probes that exceeded the hop cap
	// (their ring segments retried in a later iteration).
	DeadProbes int
}

// Orient computes an Eulerian orientation of g with the Theorem 1.4
// algorithm (deterministic unless opts.Mode says otherwise). The returned
// slice has one entry per edge: true means the edge is oriented from
// Edge.U to Edge.V. dirCost, if non-nil, must have one signed cost per
// edge (see the package comment); every implicit cycle's chosen direction
// then has non-positive total cost. Rounds are recorded in opts.Ledger
// (which may be nil).
func Orient(g *graph.Graph, dirCost []int64, opts Options) ([]bool, Stats, error) {
	opts.Metrics.MirrorLedger(opts.Ledger)
	snap := rounds.Snap(opts.Ledger)
	spansBefore := opts.Trace.SpanCount()
	orient, stats, err := orientImpl(g, dirCost, opts)
	stats.Stats = snap.Stats()
	stats.Spans = opts.Trace.SpanCount() - spansBefore
	if reg := opts.Metrics; reg != nil && err == nil {
		reg.Counter("lapcc_euler_orientations_total", "Eulerian orientations computed.").Inc()
		reg.Counter("lapcc_euler_iterations_total", "Ring-contraction iterations.").Add(int64(stats.Iterations))
		reg.Counter("lapcc_euler_dead_probes_total", "Randomized-mode probes past the hop cap.").Add(int64(stats.DeadProbes))
	}
	return orient, stats, err
}

func orientImpl(g *graph.Graph, dirCost []int64, opts Options) ([]bool, Stats, error) {
	if !g.IsEulerian() {
		return nil, Stats{}, ErrNotEulerian
	}
	if dirCost != nil && len(dirCost) != g.M() {
		return nil, Stats{}, fmt.Errorf("euler: %d costs for %d edges", len(dirCost), g.M())
	}
	m := g.M()
	if m == 0 {
		return nil, Stats{}, nil
	}
	n := g.N()
	if opts.Mode == 0 {
		opts.Mode = Deterministic
	}
	led, tr := opts.Ledger, opts.Trace
	tr.Attach(led)
	sp := tr.Start("euler-orient")
	defer sp.End()
	s := newStateSet(g, dirCost, opts)
	defer s.release()

	// Contraction loop: reduce every ring to a single leader state. The
	// randomized mode gets a larger iteration allowance: markings can
	// occasionally fail to shrink a ring (no marks, or a dead probe).
	maxIter := 2*int(math.Ceil(math.Log2(float64(2*m+2)))) + 4
	if opts.Mode == Randomized {
		maxIter = 8*int(math.Ceil(math.Log2(float64(2*m+2)))) + 40
	}
	opts.Budget.BindIfUnbound(led)
	iter := 0
	for s.anyProperRing() {
		if opts.Budget != nil {
			if err := opts.Budget.Check(fmt.Sprintf("euler-contract-%d", iter)); err != nil {
				return nil, Stats{}, fmt.Errorf("euler: %w", err)
			}
		}
		if iter >= maxIter {
			return nil, Stats{}, fmt.Errorf("euler: contraction did not finish in %d iterations", maxIter)
		}
		isp := tr.Startf("contract-%d", iter)
		err := s.contractOnce(n, iter)
		isp.End()
		if err != nil {
			return nil, Stats{}, err
		}
		iter++
	}

	// Leaders decide; decisions flow back down the contraction tree.
	s.decideAtLeaders()
	esp := tr.Start("expand")
	err := s.expand(n)
	esp.End()
	if err != nil {
		return nil, Stats{}, err
	}

	msp := tr.Start("mirror")
	orient, err := s.resolveOrientations(n)
	msp.End()
	if err != nil {
		return nil, Stats{}, err
	}
	return orient, Stats{Iterations: iter, States: 2 * m, DeadProbes: s.deadProbes}, nil
}

// stateSet is the simulator-side bookkeeping for the 2m directed states, and
// the working memory of one orientation: every array, the ring view the
// matching runs on, and the packets, payload words and routing output of
// every probe, reply, expansion and mirror step are sized once per
// orientation and reused by all of its routing steps. Instances are
// recycled through statePool, so the orientations of one request (one per
// flow-rounding level) reuse one set of scratch; a recycled instance holds
// no graph, transport, fault plan or ledger.
type stateSet struct {
	g     *graph.Graph
	owner []int
	succ  []int
	pred  []int
	alive []bool
	cost  []int64 // cost of the virtual edge state -> succ(state)

	// Orientation decision, filled during the expansion phase.
	leaderID []int64
	want     []bool
	known    []bool

	mode       Mode
	rng        *rand.Rand // Randomized mode only
	deadProbes int
	// net carries every routing step of the orientation, the rings'
	// included, and is charged their rounds.
	net cc.Net

	// rings views the state arrays as the rings the matching runs on. One
	// per orientation, so its exchange scratch is reused by every
	// contraction iteration.
	rings ccalgo.Rings

	// The contraction records of every iteration, which expand reads back
	// in reverse: iteration k's records end at levels[k], and each
	// record's removed chain is a span of members.
	records []contractionRecord
	levels  []int
	members []chainEntry

	// Per-step scratch.
	partner  []int // exit edge of every state (newStateSet)
	marked   []bool
	probes   []probe
	arrivals []arrival
	pkts     []cc.Packet
	// words holds the packets' payloads. Probe hops alternate between the
	// two: on the in-process path a delivered payload aliases its sender's
	// words, and a relayed probe reads its chain from the payload that
	// carried it while the next hop's payloads are written.
	words  [2][]int64
	routed cc.RouteBuffer
}

var statePool = sync.Pool{New: func() any { return new(stateSet) }}

// route delivers one routing step over s.net. The output is s's routing
// buffer (or, under a lossy fault plan, fresh), valid until the next step.
func (s *stateSet) route(n int, pkts []cc.Packet, tag string) ([][]cc.Packet, error) {
	out, _, err := s.net.Route(n, pkts, tag, &s.routed)
	return out, err
}

// contractionRecord remembers one contracted run: informer stayed alive and
// must later forward the cycle decision to the removed chain members,
// members[off : off+count] of the state set.
type contractionRecord struct {
	informer   int
	off, count int
}

type chainEntry struct {
	state int
	owner int
}

// probe is a probe in flight: held by state at, launched by origin, with
// the cost accumulated so far. chain is the (state, owner) word pairs of
// the relays it passed before reaching at, aliasing the payload that
// carried it here; at itself joins the chain on the next hop unless it is
// the origin.
type probe struct {
	at     int
	origin int
	cost   int64
	chain  []int64
}

// arrival is a probe that reached the next marked state, target. The
// relays it passed are members[off : off+count].
type arrival struct {
	origin     int
	target     int
	cost       int64
	off, count int
}

func newStateSet(g *graph.Graph, dirCost []int64, opts Options) *stateSet {
	m := g.M()
	s := statePool.Get().(*stateSet)
	s.g, s.mode = g, opts.Mode
	s.net = cc.Net{Transport: opts.Transport, Faults: opts.Faults, Ledger: opts.Ledger}
	s.deadProbes = 0
	if opts.Mode == Randomized {
		s.rng = rand.New(rand.NewSource(opts.Seed))
	}
	s.owner, s.succ, s.pred = grow(s.owner, 2*m), grow(s.succ, 2*m), grow(s.pred, 2*m)
	s.alive, s.cost = grow(s.alive, 2*m), grow(s.cost, 2*m)
	s.leaderID, s.want, s.known = grow(s.leaderID, 2*m), grow(s.want, 2*m), grow(s.known, 2*m)
	clear(s.cost)
	clear(s.leaderID)
	clear(s.want)
	clear(s.known)
	s.records, s.levels, s.members = s.records[:0], s.levels[:0], s.members[:0]
	s.rings.CliqueN, s.rings.Owner, s.rings.Succ, s.rings.Pred, s.rings.Alive = g.N(), s.owner, s.succ, s.pred, s.alive
	s.rings.Net = s.net

	stateOf := func(edge, enteredVertex int) int {
		if g.Edge(edge).V == enteredVertex {
			return 2*edge + 1
		}
		return 2 * edge
	}
	// Pair incident edges at every vertex by adjacency position: this is the
	// internal, zero-round step 1 of Theorem 1.4. The state entering v along
	// one edge of a pair leaves along the other.
	partner := grow(s.partner, 2*m)
	clear(partner)
	s.partner = partner
	for v := 0; v < g.N(); v++ {
		adj := g.Adj(v)
		for k := 0; k+1 < len(adj); k += 2 {
			a, b := adj[k].Edge, adj[k+1].Edge
			partner[stateOf(a, v)] = b
			partner[stateOf(b, v)] = a
		}
	}
	for st := 0; st < 2*m; st++ {
		e := st / 2
		var v int // the vertex this state enters
		if st%2 == 1 {
			v = g.Edge(e).V
		} else {
			v = g.Edge(e).U
		}
		s.owner[st] = v
		s.alive[st] = true
		exit := partner[st]
		w := g.Edge(exit).U
		if w == v {
			w = g.Edge(exit).V
		}
		s.succ[st] = stateOf(exit, w)
		// Hop cost: traversing edge `exit` from v to w.
		if dirCost != nil {
			if v == g.Edge(exit).U {
				s.cost[st] = dirCost[exit]
			} else {
				s.cost[st] = -dirCost[exit]
			}
		}
	}
	for st := range s.succ {
		s.pred[s.succ[st]] = st
	}
	return s
}

// release returns s to statePool, dropping its references to the caller's
// graph, transport, fault plan and ledger.
func (s *stateSet) release() {
	s.g, s.rng, s.net, s.rings.Net = nil, nil, cc.Net{}, cc.Net{}
	statePool.Put(s)
}

// grow returns buf resized to length n, reallocating only when its capacity
// is short; the contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

func (s *stateSet) anyProperRing() bool {
	for st, a := range s.alive {
		if a && s.succ[st] != st {
			return true
		}
	}
	return false
}

// contractOnce performs one marking + contraction iteration.
func (s *stateSet) contractOnce(n int, level int) error {
	marked := grow(s.marked, len(s.alive))
	clear(marked)
	s.marked = marked
	switch s.mode {
	case Randomized:
		// Paper remark after Theorem 1.4: sample each state with constant
		// probability — no symmetry-breaking rounds at all.
		for st, a := range s.alive {
			if a && s.succ[st] != st && s.rng.Intn(2) == 1 {
				marked[st] = true
			}
		}
	default:
		matchSucc, err := s.rings.MaximalMatching()
		if err != nil {
			return fmt.Errorf("euler: iteration %d: %w", level, err)
		}
		for st, m := range matchSucc {
			if !m {
				continue
			}
			hi := st
			if s.succ[st] > hi {
				hi = s.succ[st]
			}
			marked[hi] = true
		}
	}
	// Self-rings stay as they are; their (sole) state counts as marked so
	// probes from other rings can never involve them.
	for st, a := range s.alive {
		if a && s.succ[st] == st {
			marked[st] = true
		}
	}

	// Probe relay: each marked state on a proper ring launches a probe along
	// succ pointers; unmarked states forward it, appending themselves; the
	// next marked state terminates it and replies to the originator.
	//
	// Probe payload layout:
	//   [0] recipient state (resolved by the receiving clique node)
	//   [1] originator state, [2] originator owner
	//   [3] accumulated cost
	//   [4] chain length L, followed by L (state, owner) pairs
	probes := s.probes[:0]
	for st, a := range s.alive {
		if a && marked[st] && s.succ[st] != st {
			probes = append(probes, probe{at: st, origin: st, cost: s.cost[st]})
		}
	}
	hopCap := maxProbeHops
	if s.mode == Randomized {
		// Unmarked runs are geometric, so O(log m) hops suffice with high
		// probability; longer runs just retry next iteration.
		hopCap = 2*int(math.Ceil(math.Log2(float64(len(s.alive)+2)))) + 8
	}
	arrivals := s.arrivals[:0]
	for hop := 0; hop < hopCap && len(probes) > 0; hop++ {
		size := 0
		for _, p := range probes {
			size += 5 + len(p.chain)
			if p.at != p.origin {
				size += 2
			}
		}
		pkts := grow(s.pkts, len(probes))
		words := grow(s.words[hop%2], size)[:0]
		for i, p := range probes {
			next := s.succ[p.at]
			off := len(words)
			l := len(p.chain) / 2
			words = append(words, int64(next), int64(p.origin), int64(s.owner[p.origin]), p.cost, 0)
			words = append(words, p.chain...)
			if p.at != p.origin {
				words = append(words, int64(p.at), int64(s.owner[p.at]))
				l++
			}
			words[off+4] = int64(l)
			pkts[i] = cc.Packet{Src: s.owner[p.at], Dst: s.owner[next], Data: words[off:len(words):len(words)]}
		}
		s.pkts, s.words[hop%2] = pkts, words
		delivered, err := s.route(n, pkts, "euler-probe")
		if err != nil {
			return fmt.Errorf("euler: probe relay: %w", err)
		}
		probes = probes[:0]
		for _, inbox := range delivered {
			for _, pk := range inbox {
				target := int(pk.Data[0])
				origin := int(pk.Data[1])
				cost := pk.Data[3]
				chain := pk.Data[5 : 5+2*int(pk.Data[4])]
				if !marked[target] {
					probes = append(probes, probe{at: target, origin: origin, cost: cost + s.cost[target], chain: chain})
					continue
				}
				a := arrival{origin: origin, target: target, cost: cost, off: len(s.members), count: len(chain) / 2}
				for i := 0; i < len(chain); i += 2 {
					s.members = append(s.members, chainEntry{state: int(chain[i]), owner: int(chain[i+1])})
				}
				arrivals = append(arrivals, a)
			}
		}
	}
	s.probes, s.arrivals = probes, arrivals
	if len(probes) > 0 {
		if s.mode == Randomized {
			// Dropped probes leave their ring segments uncontracted; the
			// next iteration's fresh marking retries them.
			s.deadProbes += len(probes)
		} else {
			return fmt.Errorf("euler: %d probes unresolved after %d hops (unmarked run too long)", len(probes), hopCap)
		}
	}

	// Reply round: terminating states answer the originators. (A single
	// routed message per probe; the contraction data it carries is what the
	// originator needs to rewire its ring pointer.)
	size := 0
	for _, a := range arrivals {
		size += 4 + 2*a.count
	}
	pkts := grow(s.pkts, len(arrivals))
	words := grow(s.words[0], size)[:0]
	for i, a := range arrivals {
		off := len(words)
		words = append(words, int64(a.origin), int64(a.target), a.cost, int64(a.count))
		for _, ce := range s.members[a.off : a.off+a.count] {
			words = append(words, int64(ce.state), int64(ce.owner))
		}
		pkts[i] = cc.Packet{Src: s.owner[a.target], Dst: s.owner[a.origin], Data: words[off:len(words):len(words)]}
	}
	s.pkts, s.words[0] = pkts, words
	if _, err := s.route(n, pkts, "euler-reply"); err != nil {
		return fmt.Errorf("euler: probe reply: %w", err)
	}

	// Apply the rewiring (each originator acts on its reply).
	for _, a := range arrivals {
		s.succ[a.origin] = a.target
		s.pred[a.target] = a.origin
		s.cost[a.origin] = a.cost
		for _, ce := range s.members[a.off : a.off+a.count] {
			s.alive[ce.state] = false
		}
		if a.count > 0 {
			s.records = append(s.records, contractionRecord{informer: a.origin, off: a.off, count: a.count})
		}
	}
	s.levels = append(s.levels, len(s.records))
	return nil
}

// decideAtLeaders sets the orientation decision at every leader (self-ring).
func (s *stateSet) decideAtLeaders() {
	for st, a := range s.alive {
		if !a {
			continue
		}
		s.leaderID[st] = int64(st)
		s.want[st] = s.cost[st] <= 0
		s.known[st] = true
	}
}

// expand pushes (leaderID, want) back down the contraction tree, one routed
// batch per contraction level, in reverse order.
func (s *stateSet) expand(n int) error {
	for level := len(s.levels) - 1; level >= 0; level-- {
		first := 0
		if level > 0 {
			first = s.levels[level-1]
		}
		recs := s.records[first:s.levels[level]]
		size := 0
		for _, rec := range recs {
			size += rec.count
		}
		pkts := grow(s.pkts, size)[:0]
		words := grow(s.words[0], 3*size)
		for _, rec := range recs {
			if !s.known[rec.informer] {
				return fmt.Errorf("euler: informer %d lacks decision at level %d", rec.informer, level)
			}
			w := int64(0)
			if s.want[rec.informer] {
				w = 1
			}
			for _, ce := range s.members[rec.off : rec.off+rec.count] {
				data := words[3*len(pkts) : 3*len(pkts)+3 : 3*len(pkts)+3]
				data[0], data[1], data[2] = int64(ce.state), s.leaderID[rec.informer], w
				pkts = append(pkts, cc.Packet{Src: s.owner[rec.informer], Dst: ce.owner, Data: data})
			}
		}
		s.pkts, s.words[0] = pkts, words
		delivered, err := s.route(n, pkts, "euler-expand")
		if err != nil {
			return fmt.Errorf("euler: expansion level %d: %w", level, err)
		}
		for _, inbox := range delivered {
			for _, pk := range inbox {
				st := int(pk.Data[0])
				s.leaderID[st] = pk.Data[1]
				s.want[st] = pk.Data[2] == 1
				s.known[st] = true
			}
		}
	}
	return nil
}

// resolveOrientations performs the final mirror exchange: for each edge the
// two directed states swap (leaderID, want) and both endpoints apply the
// same deterministic rule, yielding a consistent orientation per cycle.
func (s *stateSet) resolveOrientations(n int) ([]bool, error) {
	m := s.g.M()
	pkts := grow(s.pkts, 2*m)
	words := grow(s.words[0], 3*2*m)
	s.pkts, s.words[0] = pkts, words
	for st := 0; st < 2*m; st++ {
		if !s.known[st] {
			return nil, fmt.Errorf("euler: state %d never received a decision", st)
		}
		mirror := st ^ 1
		w := int64(0)
		if s.want[st] {
			w = 1
		}
		data := words[3*st : 3*st+3 : 3*st+3]
		data[0], data[1], data[2] = int64(mirror), s.leaderID[st], w
		pkts[st] = cc.Packet{Src: s.owner[st], Dst: s.owner[mirror], Data: data}
	}
	if _, err := s.route(n, pkts, "euler-mirror"); err != nil {
		return nil, fmt.Errorf("euler: mirror exchange: %w", err)
	}
	// Both endpoints now hold both tuples; the driver computes the shared
	// deterministic rule once per edge.
	orient := make([]bool, m)
	for e := 0; e < m; e++ {
		l0, w0 := s.leaderID[2*e], s.want[2*e]     // direction V -> U
		l1, w1 := s.leaderID[2*e+1], s.want[2*e+1] // direction U -> V
		var winnerIsForward bool
		switch {
		case w1 && !w0:
			winnerIsForward = true
		case w0 && !w1:
			winnerIsForward = false
		default:
			winnerIsForward = l1 > l0
		}
		orient[e] = winnerIsForward
	}
	return orient, nil
}

// CheckOrientation verifies that orient is an Eulerian orientation of g:
// every vertex has equal in- and out-degree. It returns the first violating
// vertex, or -1.
func CheckOrientation(g *graph.Graph, orient []bool) int {
	balance := make([]int, g.N())
	for i, e := range g.Edges() {
		if orient[i] {
			balance[e.U]++
			balance[e.V]--
		} else {
			balance[e.U]--
			balance[e.V]++
		}
	}
	for v, b := range balance {
		if b != 0 {
			return v
		}
	}
	return -1
}
