package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"
)

// Flight is the crash flight recorder: a fixed-size in-memory ring of
// recent transport events (barrier commits, chaos fates, supervision
// transitions, heartbeat failures) kept cheap enough to leave on in
// production and dumped to JSONL only when something dies. It is the
// deliberate complement of the trace plane's determinism contract: the
// trace timeline carries only seed-reproducible content, so everything
// wall-clock-shaped or failure-specific — timestamps, heartbeat races,
// error strings — lands here instead, where nobody diffs the bytes.
//
// All methods are safe on a nil *Flight (recording disabled, zero cost)
// and safe for concurrent use. Record does not allocate: the ring is
// pre-sized and event fields are plain values, so a disabled-or-enabled
// ring adds 0 allocs/op to the TCP barrier path (pinned by test).
type Flight struct {
	mu   sync.Mutex
	ring []FlightEvent
	seq  uint64 // total events ever recorded; ring holds the last len(ring)
}

// FlightEvent is one recorded transport event. Kind is a short static
// string ("barrier-commit", "kill", "mesh-restart", "replay", ...); Detail
// carries free-form nondeterministic context such as error text.
type FlightEvent struct {
	Seq     uint64
	At      time.Time
	Kind    string
	Barrier uint64
	Epoch   uint64
	Node    int // -1 when not node-scoped
	Detail  string

	// Cumulative or per-barrier counters, meaningful per kind; zero
	// otherwise.
	Messages int64
	Frames   int64
}

// DefaultFlightSize is the ring capacity CLIs use for -flight: at a few
// events per barrier it covers thousands of recent barriers, and at ~150
// bytes per slot it costs well under a megabyte.
const DefaultFlightSize = 4096

// NewFlight returns a recorder holding the last size events (size <= 0
// selects DefaultFlightSize). The ring is allocated up front so Record
// never does.
func NewFlight(size int) *Flight {
	if size <= 0 {
		size = DefaultFlightSize
	}
	return &Flight{ring: make([]FlightEvent, size)}
}

// Enabled reports whether the recorder stores anything.
func (f *Flight) Enabled() bool { return f != nil }

// Record appends ev to the ring, stamping its sequence number and, if
// ev.At is zero, the current time. Safe on nil; does not allocate.
func (f *Flight) Record(ev FlightEvent) {
	if f == nil {
		return
	}
	if ev.At.IsZero() {
		ev.At = time.Now()
	}
	f.mu.Lock()
	ev.Seq = f.seq
	f.ring[f.seq%uint64(len(f.ring))] = ev
	f.seq++
	f.mu.Unlock()
}

// Len returns the number of events currently held (0 on nil).
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seq < uint64(len(f.ring)) {
		return int(f.seq)
	}
	return len(f.ring)
}

// Events returns the held events oldest-first (nil on a nil or empty
// recorder). The slice is a copy; the ring keeps recording.
func (f *Flight) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := uint64(len(f.ring))
	count := f.seq
	if count > n {
		count = n
	}
	if count == 0 {
		return nil
	}
	out := make([]FlightEvent, 0, count)
	for i := f.seq - count; i < f.seq; i++ {
		out = append(out, f.ring[i%n])
	}
	return out
}

// jsonlFlight fixes the JSONL field order for one flight event. Unlike the
// trace stream this one is openly nondeterministic (wall-clock timestamps,
// error text); ValidateFlightJSONL checks structure, not bytes.
type jsonlFlight struct {
	Seq      uint64 `json:"seq"`
	T        string `json:"t"`
	Kind     string `json:"kind"`
	Barrier  uint64 `json:"barrier"`
	Epoch    uint64 `json:"epoch"`
	Node     int    `json:"node"`
	Detail   string `json:"detail,omitempty"`
	Messages int64  `json:"messages,omitempty"`
	Frames   int64  `json:"frames,omitempty"`
}

// WriteJSONL writes the held events oldest-first, one JSON object per
// line. A nil or empty recorder writes nothing.
func (f *Flight) WriteJSONL(w io.Writer) error {
	evs := f.Events()
	if len(evs) == 0 {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range evs {
		rec := jsonlFlight{
			Seq: ev.Seq, T: ev.At.UTC().Format(time.RFC3339Nano), Kind: ev.Kind,
			Barrier: ev.Barrier, Epoch: ev.Epoch, Node: ev.Node, Detail: ev.Detail,
			Messages: ev.Messages, Frames: ev.Frames,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DumpFile writes the ring to path (truncating), the coordinator's
// unrecoverable-failure path. A nil recorder or empty path is a no-op.
func (f *Flight) DumpFile(path string) error {
	if f == nil || path == "" {
		return nil
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.WriteJSONL(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// Handler serves the ring as application/x-ndjson — mounted at
// /debug/flight by the CLIs. A nil recorder serves 404 so the route can be
// registered unconditionally.
func (f *Flight) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f == nil {
			http.Error(w, "flight recorder disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = f.WriteJSONL(w)
	})
}

// ValidateFlightJSONL checks a flight dump's structure: every line a JSON
// object with exactly the known fields, sequence numbers strictly
// increasing (NOT necessarily from 0 — a wrapped ring starts mid-stream),
// a parseable RFC 3339 timestamp, and a non-empty kind. Counter fields are
// omitempty, so they are optional but must be non-negative when present.
func ValidateFlightJSONL(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	var lastSeq int64 = -1
	for sc.Scan() {
		line++
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			return fmt.Errorf("trace: flight line %d: not a JSON object: %w", line, err)
		}
		for key := range raw {
			if !flightFields[key] {
				return fmt.Errorf("trace: flight line %d: unknown field %q", line, key)
			}
		}
		seq, err := intField(raw, "seq", line)
		if err != nil {
			return err
		}
		if seq <= lastSeq {
			return fmt.Errorf("trace: flight line %d: seq %d not increasing (previous %d)", line, seq, lastSeq)
		}
		lastSeq = seq
		ts, err := strField(raw, "t", line)
		if err != nil {
			return err
		}
		if _, err := time.Parse(time.RFC3339Nano, ts); err != nil {
			return fmt.Errorf("trace: flight line %d: bad timestamp: %w", line, err)
		}
		kind, err := strField(raw, "kind", line)
		if err != nil {
			return err
		}
		if kind == "" {
			return fmt.Errorf("trace: flight line %d: empty kind", line)
		}
		for _, f := range []string{"barrier", "epoch"} {
			if v, err := intField(raw, f, line); err != nil {
				return err
			} else if v < 0 {
				return fmt.Errorf("trace: flight line %d: negative %s %d", line, f, v)
			}
		}
		if node, err := intField(raw, "node", line); err != nil {
			return err
		} else if node < -1 {
			return fmt.Errorf("trace: flight line %d: bad node %d", line, node)
		}
		for _, f := range []string{"messages", "frames"} {
			if _, ok := raw[f]; !ok {
				continue
			}
			if v, err := intField(raw, f, line); err != nil {
				return err
			} else if v < 0 {
				return fmt.Errorf("trace: flight line %d: negative %s %d", line, f, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("trace: reading flight stream: %w", err)
	}
	return nil
}

// flightFields is the exact field set of a flight JSONL record, mirroring
// jsonlFlight.
var flightFields = set("seq", "t", "kind", "barrier", "epoch", "node",
	"detail", "messages", "frames")
