package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// ValidateJSONL checks a JSONL event stream against the schema WriteJSONL
// emits: every line a JSON object with a known "ev" type and exactly that
// type's fields (unknown fields are rejected — a field this validator does
// not know is one no consumer has agreed on, and silently passing it would
// let the writer and the schema drift apart), sequence numbers consecutive
// from 0, begin/end events properly nested, and every cost/traffic/round
// event referencing either a span that has begun or the sentinel -1. It
// returns nil for a valid stream and a line-numbered error otherwise —
// including for a stream whose final line was truncated mid-object (a
// killed writer), which fails JSON parsing. make trace-smoke and the cmd
// -trace flags run every exported stream through it.
func ValidateJSONL(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	wantSeq := 0
	begun := map[int]bool{}  // span id -> begin seen
	closed := map[int]bool{} // span id -> end seen
	var stack []int          // open span ids, innermost last
	for sc.Scan() {
		line++
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			return fmt.Errorf("trace: line %d: not a JSON object: %w", line, err)
		}
		ev, err := strField(raw, "ev", line)
		if err != nil {
			return err
		}
		if allowed, ok := eventFields[ev]; ok {
			for key := range raw {
				if !allowed[key] {
					return fmt.Errorf("trace: line %d: unknown field %q on %q event", line, key, ev)
				}
			}
		}
		seq64, err := intField(raw, "seq", line)
		if err != nil {
			return err
		}
		if int(seq64) != wantSeq {
			return fmt.Errorf("trace: line %d: seq %d, want %d", line, seq64, wantSeq)
		}
		wantSeq++
		span64, err := intField(raw, "span", line)
		if err != nil {
			return err
		}
		span := int(span64)
		switch ev {
		case "begin":
			if begun[span] {
				return fmt.Errorf("trace: line %d: span %d begun twice", line, span)
			}
			parent64, err := intField(raw, "parent", line)
			if err != nil {
				return err
			}
			parent := int(parent64)
			curParent := -1
			if len(stack) > 0 {
				curParent = stack[len(stack)-1]
			}
			if parent != curParent {
				return fmt.Errorf("trace: line %d: span %d declares parent %d but innermost open span is %d", line, span, parent, curParent)
			}
			if _, err := strField(raw, "name", line); err != nil {
				return err
			}
			if _, err := strField(raw, "path", line); err != nil {
				return err
			}
			begun[span] = true
			stack = append(stack, span)
		case "end":
			if !begun[span] {
				return fmt.Errorf("trace: line %d: span %d ends before beginning", line, span)
			}
			if closed[span] {
				return fmt.Errorf("trace: line %d: span %d ends twice", line, span)
			}
			if len(stack) == 0 || stack[len(stack)-1] != span {
				return fmt.Errorf("trace: line %d: span %d ends out of nesting order", line, span)
			}
			for _, f := range []string{"measured", "charged"} {
				if _, err := intField(raw, f, line); err != nil {
					return err
				}
			}
			closed[span] = true
			stack = stack[:len(stack)-1]
		case "cost":
			if err := checkSpanRef(begun, span, line); err != nil {
				return err
			}
			if _, err := strField(raw, "tag", line); err != nil {
				return err
			}
			kind, err := strField(raw, "kind", line)
			if err != nil {
				return err
			}
			if kind != "measured" && kind != "charged" {
				return fmt.Errorf("trace: line %d: unknown cost kind %q", line, kind)
			}
			rr, err := intField(raw, "rounds", line)
			if err != nil {
				return err
			}
			if rr < 0 {
				return fmt.Errorf("trace: line %d: negative rounds %d", line, rr)
			}
		case "traffic":
			if err := checkSpanRef(begun, span, line); err != nil {
				return err
			}
			if _, err := strField(raw, "tag", line); err != nil {
				return err
			}
			for _, f := range []string{"messages", "words"} {
				if _, err := intField(raw, f, line); err != nil {
					return err
				}
			}
		case "mark":
			if err := checkSpanRef(begun, span, line); err != nil {
				return err
			}
			name, err := strField(raw, "name", line)
			if err != nil {
				return err
			}
			if name == "" {
				return fmt.Errorf("trace: line %d: empty mark name", line)
			}
			for _, f := range []string{"barrier", "epoch"} {
				if v, err := intField(raw, f, line); err != nil {
					return err
				} else if v < 0 {
					return fmt.Errorf("trace: line %d: negative %s %d", line, f, v)
				}
			}
			if node, err := intField(raw, "node", line); err != nil {
				return err
			} else if node < -1 {
				return fmt.Errorf("trace: line %d: bad node %d", line, node)
			}
		default:
			return fmt.Errorf("trace: line %d: unknown event type %q", line, ev)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("trace: reading stream: %w", err)
	}
	if len(stack) > 0 {
		return fmt.Errorf("trace: stream ends with %d span(s) still open (innermost id %d)", len(stack), stack[len(stack)-1])
	}
	return nil
}

// eventFields is the exact field set of each event type, mirroring the
// jsonl* structs in export.go. Unknown "ev" values fall through to the
// switch's default error, so they need no entry here.
var eventFields = map[string]map[string]bool{
	"begin":   set("ev", "seq", "span", "parent", "name", "path"),
	"end":     set("ev", "seq", "span", "measured", "charged"),
	"cost":    set("ev", "seq", "span", "tag", "kind", "rounds"),
	"traffic": set("ev", "seq", "span", "tag", "messages", "words"),
	"mark":    set("ev", "seq", "span", "name", "barrier", "epoch", "node"),
}

func set(keys ...string) map[string]bool {
	m := make(map[string]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

func checkSpanRef(begun map[int]bool, span, line int) error {
	if span == -1 {
		return nil // unattributed: recorded with no span open
	}
	if !begun[span] {
		return fmt.Errorf("trace: line %d: event references span %d before it begins", line, span)
	}
	return nil
}

func strField(raw map[string]json.RawMessage, key string, line int) (string, error) {
	v, ok := raw[key]
	if !ok {
		return "", fmt.Errorf("trace: line %d: missing field %q", line, key)
	}
	var s string
	if err := json.Unmarshal(v, &s); err != nil {
		return "", fmt.Errorf("trace: line %d: field %q: %w", line, key, err)
	}
	return s, nil
}

func intField(raw map[string]json.RawMessage, key string, line int) (int64, error) {
	v, ok := raw[key]
	if !ok {
		return 0, fmt.Errorf("trace: line %d: missing field %q", line, key)
	}
	var n int64
	if err := json.Unmarshal(v, &n); err != nil {
		return 0, fmt.Errorf("trace: line %d: field %q: %w", line, key, err)
	}
	return n, nil
}
