// Package trace is the structured round-tracing subsystem for the
// congested-clique algorithm stack.
//
// A Tracer records a tree of named spans — one per algorithm phase
// (sparsifier level, Chebyshev attempt, IPM iteration, contraction level) —
// and attributes every cost recorded while a span is open to that span:
//
//   - measured and charged rounds, fed from rounds.Ledger via Ledger.SetSink
//     (the Tracer implements rounds.Sink and rounds.TrafficSink);
//   - message and payload-word counts, fed from the routing primitives'
//     link-traffic reports;
//   - wall-clock time per span.
//
// Span names compose into slash-separated paths such as
// "lapsolve/sparsify/class-0/level-3" or "maxflow/ipm/iter-17"; the path of
// a span is its parent's path plus its own name.
//
// All methods are safe on a nil *Tracer and a nil *Span: a disabled trace
// is a nil pointer, costs nothing, and allocates nothing — callers thread
// tracers unconditionally instead of guarding every call site. A Tracer is
// safe for concurrent use; recording takes one uncontended mutex.
//
// Exports: WriteJSONL (deterministic event stream, no wall-clock fields),
// WriteChromeTrace (Chrome trace_event JSON loadable in chrome://tracing or
// Perfetto), and Summary (per-phase text table).
package trace

import (
	"fmt"
	"sync"
	"time"

	"lapcc/internal/rounds"
)

// Span is one node in the trace tree: a named phase of an execution, open
// from Start to End, accumulating the costs recorded while it is the
// innermost open span. All methods are nil-safe.
type Span struct {
	tr     *Tracer
	id     int
	parent *Span
	name   string
	path   string

	open       bool
	start, end time.Duration // offsets from the tracer epoch

	measured int64 // rounds attributed while innermost
	charged  int64

	messages int64 // routing link messages
	words    int64 // payload words across those messages
}

type eventKind uint8

const (
	evBegin eventKind = iota + 1
	evEnd
	evCost
	evTraffic
	evMark
)

func (k eventKind) String() string {
	switch k {
	case evBegin:
		return "begin"
	case evEnd:
		return "end"
	case evCost:
		return "cost"
	case evTraffic:
		return "traffic"
	case evMark:
		return "mark"
	default:
		return fmt.Sprintf("eventKind(%d)", int(k))
	}
}

// event is one record in the flat stream backing the JSONL export. Wall
// times (at) are recorded for the Chrome export but never serialized to
// JSONL, which must be byte-identical across runs of the same workload.
type event struct {
	kind eventKind
	span int // span id; -1 for costs recorded with no span open
	at   time.Duration

	tag      string      // cost, traffic
	costKind rounds.Kind // cost
	rounds   int64       // cost

	messages int64 // traffic
	words    int64 // traffic

	barrier uint64 // mark: barrier index at the transition
	epoch   uint64 // mark: mesh epoch at the transition
	node    int    // mark: worker index, -1 when not node-scoped
}

// Tracer records spans and events. The zero value is not usable; call New.
// A nil *Tracer is a valid, disabled tracer. A Tracer is intended for one
// logical execution: Start/End from the driving goroutine establish the
// span tree, while cost and traffic callbacks may arrive from any
// goroutine and are attributed to the innermost open span.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*Span
	evs   []event
	cur   *Span // innermost open span

	unattrMeasured int64 // rounds recorded with no span open
	unattrCharged  int64
}

// New returns an empty, enabled tracer.
func New() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Enabled reports whether the tracer records anything; callers use it to
// skip building span names that would otherwise be formatted and discarded.
func (t *Tracer) Enabled() bool { return t != nil }

// Start opens a span named name as a child of the innermost open span (or
// as a root) and makes it the innermost. Returns nil on a nil tracer.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	s := &Span{
		tr:     t,
		id:     len(t.spans),
		parent: t.cur,
		name:   name,
		open:   true,
		start:  time.Since(t.epoch),
	}
	if s.parent != nil {
		s.path = s.parent.path + "/" + name
	} else {
		s.path = name
	}
	t.spans = append(t.spans, s)
	t.cur = s
	t.evs = append(t.evs, event{kind: evBegin, span: s.id, at: s.start})
	t.mu.Unlock()
	return s
}

// Startf is Start with a formatted name; on a nil tracer the formatting is
// skipped entirely.
func (t *Tracer) Startf(format string, args ...any) *Span {
	if t == nil {
		return nil
	}
	return t.Start(fmt.Sprintf(format, args...))
}

// End closes the span and restores its parent as the innermost open span.
// Ending a span that is not the innermost also ends every still-open
// descendant (mis-nested ends are forgiven rather than corrupting the
// tree). Ending twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	if s.open {
		onChain := false
		for c := t.cur; c != nil; c = c.parent {
			if c == s {
				onChain = true
				break
			}
		}
		if onChain {
			// Close any still-open descendants first, innermost outward.
			for t.cur != s {
				t.closeLocked(t.cur)
				t.cur = t.cur.parent
			}
			t.closeLocked(s)
			t.cur = s.parent
		} else {
			t.closeLocked(s)
		}
	}
	t.mu.Unlock()
}

func (t *Tracer) closeLocked(s *Span) {
	if !s.open {
		return
	}
	s.open = false
	s.end = time.Since(t.epoch)
	t.evs = append(t.evs, event{kind: evEnd, span: s.id, at: s.end})
}

// Name returns the span's own name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Path returns the slash-separated path from the root ("" on nil).
func (s *Span) Path() string {
	if s == nil {
		return ""
	}
	return s.path
}

// RoundCost implements rounds.Sink: it attributes r rounds of the given
// kind to the innermost open span (or to the unattributed bucket when no
// span is open) and appends a cost event. Safe on a nil tracer so that a
// nil *Tracer stored in a rounds.Sink interface stays harmless.
func (t *Tracer) RoundCost(tag string, kind rounds.Kind, r int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	id := -1
	if s := t.cur; s != nil {
		id = s.id
		switch kind {
		case rounds.Measured:
			s.measured += r
		case rounds.Charged:
			s.charged += r
		}
	} else {
		switch kind {
		case rounds.Measured:
			t.unattrMeasured += r
		case rounds.Charged:
			t.unattrCharged += r
		}
	}
	t.evs = append(t.evs, event{
		kind: evCost, span: id, at: time.Since(t.epoch),
		tag: tag, costKind: kind, rounds: r,
	})
	t.mu.Unlock()
}

// LinkTraffic implements rounds.TrafficSink: it attributes routed message
// and payload-word counts to the innermost open span.
func (t *Tracer) LinkTraffic(tag string, messages, words int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	id := -1
	if s := t.cur; s != nil {
		id = s.id
		s.messages += messages
		s.words += words
	}
	t.evs = append(t.evs, event{
		kind: evTraffic, span: id, at: time.Since(t.epoch),
		tag: tag, messages: messages, words: words,
	})
	t.mu.Unlock()
}

// Mark records a point event — a supervision transition such as a chaos
// kill, mesh teardown/respawn, or checkpoint replay — attributed to the
// innermost open span and tagged with the barrier index, mesh epoch, and
// worker index it concerns (node -1 for coordinator-scoped transitions).
// Marks carry no wall-clock or error text in the JSONL export, so a traced
// chaos run with a fixed kill schedule stays byte-deterministic;
// nondeterministic detail belongs in the flight recorder instead.
func (t *Tracer) Mark(name string, barrier, epoch uint64, node int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	id := -1
	if s := t.cur; s != nil {
		id = s.id
	}
	t.evs = append(t.evs, event{
		kind: evMark, span: id, at: time.Since(t.epoch),
		tag: name, barrier: barrier, epoch: epoch, node: node,
	})
	t.mu.Unlock()
}

// Attach installs the tracer as the ledger's sink so every Ledger.Add flows
// into the span tree. Nil tracer or nil ledger is a no-op (in particular, a
// nil *Tracer is never installed as a non-nil Sink interface). Returns the
// tracer for chaining.
func (t *Tracer) Attach(led *rounds.Ledger) *Tracer {
	if t == nil || led == nil {
		return t
	}
	led.AttachSink(t)
	return t
}

// SpanCount returns the number of spans recorded so far (0 on nil).
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// AttributedRounds returns the rounds recorded inside some span and the
// rounds recorded with no span open.
func (t *Tracer) AttributedRounds() (attributed, unattributed int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		attributed += s.measured + s.charged
	}
	return attributed, t.unattrMeasured + t.unattrCharged
}

// AttributedFraction returns the fraction of recorded rounds attributed to
// a named span (1 when nothing was recorded). The acceptance bar for a
// traced solve is >= 0.95.
func (t *Tracer) AttributedFraction() float64 {
	a, u := t.AttributedRounds()
	if a+u == 0 {
		return 1
	}
	return float64(a) / float64(a+u)
}

// snapshot copies the mutable state out under the lock so exports can
// format without holding it.
func (t *Tracer) snapshot() ([]Span, []event, int64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]Span, len(t.spans))
	for i, s := range t.spans {
		spans[i] = *s
		if s.open {
			// Present open spans as ending "now" so exports of a live
			// tracer are well-formed.
			spans[i].end = time.Since(t.epoch)
		}
	}
	evs := make([]event, len(t.evs))
	copy(evs, t.evs)
	return spans, evs, t.unattrMeasured, t.unattrCharged
}
