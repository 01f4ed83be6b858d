package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// JSONL event records. One struct per event kind so encoding/json emits a
// fixed field order; none carries a wall-clock field, which is what makes
// the JSONL stream byte-identical across runs of the same seeded workload.

type jsonlBegin struct {
	Ev     string `json:"ev"`
	Seq    int    `json:"seq"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Path   string `json:"path"`
}

type jsonlEnd struct {
	Ev       string `json:"ev"`
	Seq      int    `json:"seq"`
	Span     int    `json:"span"`
	Measured int64  `json:"measured"`
	Charged  int64  `json:"charged"`
}

type jsonlCost struct {
	Ev     string `json:"ev"`
	Seq    int    `json:"seq"`
	Span   int    `json:"span"`
	Tag    string `json:"tag"`
	Kind   string `json:"kind"`
	Rounds int64  `json:"rounds"`
}

type jsonlTraffic struct {
	Ev       string `json:"ev"`
	Seq      int    `json:"seq"`
	Span     int    `json:"span"`
	Tag      string `json:"tag"`
	Messages int64  `json:"messages"`
	Words    int64  `json:"words"`
}

type jsonlMark struct {
	Ev      string `json:"ev"`
	Seq     int    `json:"seq"`
	Span    int    `json:"span"`
	Name    string `json:"name"`
	Barrier uint64 `json:"barrier"`
	Epoch   uint64 `json:"epoch"`
	Node    int    `json:"node"`
}

// WriteJSONL writes the event stream as one JSON object per line, in
// recording order with explicit sequence numbers. The stream is
// deterministic: it carries span structure and costs but no wall-clock
// fields, so two runs of the same seeded workload produce byte-identical
// output. A nil tracer writes nothing.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	spans, evs, _, _ := t.snapshot()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encoder appends the newline per record
	for seq, ev := range evs {
		var rec any
		switch ev.kind {
		case evBegin:
			s := spans[ev.span]
			parent := -1
			if s.parent != nil {
				parent = s.parent.id
			}
			rec = jsonlBegin{Ev: "begin", Seq: seq, Span: s.id, Parent: parent, Name: s.name, Path: s.path}
		case evEnd:
			s := spans[ev.span]
			rec = jsonlEnd{Ev: "end", Seq: seq, Span: s.id, Measured: s.measured, Charged: s.charged}
		case evCost:
			rec = jsonlCost{Ev: "cost", Seq: seq, Span: ev.span, Tag: ev.tag, Kind: ev.costKind.String(), Rounds: ev.rounds}
		case evTraffic:
			rec = jsonlTraffic{Ev: "traffic", Seq: seq, Span: ev.span, Tag: ev.tag, Messages: ev.messages, Words: ev.words}
		case evMark:
			rec = jsonlMark{Ev: "mark", Seq: seq, Span: ev.span, Name: ev.tag, Barrier: ev.barrier, Epoch: ev.epoch, Node: ev.node}
		default:
			return fmt.Errorf("trace: unknown event kind %v", ev.kind)
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Caveat on evEnd above: the end record reports the span's *final* totals
// (stable across runs), not a mid-stream snapshot, because costs recorded
// after a forgiving close would otherwise make the stream order-sensitive.

// Chrome trace_event records, per the Trace Event Format spec. Complete
// ("X") events carry each span; instant ("i") events mark ledger costs.
// Timestamps are microseconds of wall clock, so this export is not
// deterministic — it exists to be *looked at* in chrome://tracing or
// Perfetto, not diffed.

type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteChromeTrace writes the span tree in Chrome trace_event JSON
// (object form, {"traceEvents": [...]}), loadable in chrome://tracing and
// Perfetto. Spans become complete ("X") events on one track; ledger costs
// become instant ("i") events. A nil tracer writes an empty trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	file := chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	if t != nil {
		spans, evs, _, _ := t.snapshot()
		for i := range spans {
			s := &spans[i]
			dur := usec(s.end - s.start)
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: s.name, Cat: "span", Ph: "X",
				Ts: usec(s.start), Dur: &dur, Pid: 1, Tid: 1,
				Args: map[string]any{
					"path":     s.path,
					"measured": s.measured,
					"charged":  s.charged,
					"messages": s.messages,
					"words":    s.words,
				},
			})
		}
		for _, ev := range evs {
			switch ev.kind {
			case evCost:
				file.TraceEvents = append(file.TraceEvents, chromeEvent{
					Name: ev.tag, Cat: "cost", Ph: "i",
					Ts: usec(ev.at), Scope: "t", Pid: 1, Tid: 1,
					Args: map[string]any{
						"kind":   ev.costKind.String(),
						"rounds": ev.rounds,
					},
				})
			case evMark:
				file.TraceEvents = append(file.TraceEvents, chromeEvent{
					Name: ev.tag, Cat: "mark", Ph: "i",
					Ts: usec(ev.at), Scope: "g", Pid: 1, Tid: 1,
					Args: map[string]any{
						"barrier": ev.barrier,
						"epoch":   ev.epoch,
						"node":    ev.node,
					},
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

// phaseAgg aggregates spans sharing one path for the summary table.
type phaseAgg struct {
	path     string
	calls    int
	measured int64
	charged  int64
	messages int64
	wall     time.Duration
}

// Summary renders a per-phase table: spans aggregated by path in
// first-opened order, with the unattributed bucket and the attribution
// fraction appended. It replaces ad-hoc per-experiment printing. A nil
// tracer summarizes to a single line.
func (t *Tracer) Summary() string {
	if t == nil {
		return "trace: disabled\n"
	}
	spans, _, unM, unC := t.snapshot()
	byPath := map[string]*phaseAgg{}
	var order []string
	for i := range spans {
		s := &spans[i]
		a, ok := byPath[s.path]
		if !ok {
			a = &phaseAgg{path: s.path}
			byPath[s.path] = a
			order = append(order, s.path)
		}
		a.calls++
		a.measured += s.measured
		a.charged += s.charged
		a.messages += s.messages
		a.wall += s.end - s.start
	}
	var attributed int64
	for _, p := range order {
		attributed += byPath[p].measured + byPath[p].charged
	}
	unattributed := unM + unC
	total := attributed + unattributed

	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %6s %10s %10s %12s %12s\n",
		"span", "calls", "measured", "charged", "messages", "wall")
	for _, p := range order {
		a := byPath[p]
		fmt.Fprintf(&b, "%-44s %6d %10d %10d %12d %12s\n",
			indentPath(a.path), a.calls, a.measured, a.charged, a.messages, a.wall.Round(time.Microsecond))
	}
	if unattributed > 0 {
		fmt.Fprintf(&b, "%-44s %6s %10d %10d\n", "(unattributed)", "", unM, unC)
	}
	if total > 0 {
		fmt.Fprintf(&b, "attributed to spans: %d/%d rounds (%.1f%%)\n",
			attributed, total, 100*float64(attributed)/float64(total))
	} else {
		fmt.Fprintf(&b, "attributed to spans: no rounds recorded\n")
	}
	return b.String()
}

// indentPath renders "a/b/c" as "    c" style nesting for the table while
// keeping leaf names readable.
func indentPath(path string) string {
	depth := strings.Count(path, "/")
	if depth == 0 {
		return path
	}
	leaf := path[strings.LastIndexByte(path, '/')+1:]
	return strings.Repeat("  ", depth) + leaf
}

// Phases returns the aggregated per-path rows of Summary for programmatic
// use, sorted by descending total rounds.
func (t *Tracer) Phases() []PhaseStats {
	if t == nil {
		return nil
	}
	spans, _, _, _ := t.snapshot()
	byPath := map[string]*phaseAgg{}
	var order []string
	for i := range spans {
		s := &spans[i]
		a, ok := byPath[s.path]
		if !ok {
			a = &phaseAgg{path: s.path}
			byPath[s.path] = a
			order = append(order, s.path)
		}
		a.calls++
		a.measured += s.measured
		a.charged += s.charged
		a.messages += s.messages
		a.wall += s.end - s.start
	}
	out := make([]PhaseStats, 0, len(order))
	for _, p := range order {
		a := byPath[p]
		out = append(out, PhaseStats{
			Path: a.path, Calls: a.calls,
			MeasuredRounds: a.measured, ChargedRounds: a.charged,
			Messages: a.messages, WallTime: a.wall,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].MeasuredRounds+out[i].ChargedRounds > out[j].MeasuredRounds+out[j].ChargedRounds
	})
	return out
}

// PhaseStats is one aggregated row of the per-phase summary.
type PhaseStats struct {
	Path           string
	Calls          int
	MeasuredRounds int64
	ChargedRounds  int64
	Messages       int64
	WallTime       time.Duration
}
