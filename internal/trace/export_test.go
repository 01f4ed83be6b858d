package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"lapcc/internal/rounds"
)

func mustStat(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// populated builds a tracer exercising every event kind.
func populated() *Tracer {
	tr := New()
	led := rounds.New()
	tr.Attach(led)
	led.Add("pre", rounds.Measured, 1, "unattributed")
	a := tr.Start("a")
	led.Add("work", rounds.Measured, 4, "matvec")
	led.AddTraffic("route", 3, 9)
	b := tr.Start("b")
	led.Add("cited", rounds.Charged, 6, "black box")
	b.End()
	a.End()
	return tr
}

func TestJSONLRoundTripValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := populated().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateJSONL(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("generated stream fails validation: %v\n%s", err, buf.String())
	}
	// Every line must decode as a JSON object with an "ev" field.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if _, ok := m["ev"]; !ok {
			t.Fatalf("line %q lacks ev", line)
		}
	}
}

func TestJSONLNilTracerWritesNothing(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil tracer wrote %q", buf.String())
	}
	if err := ValidateJSONL(&buf); err != nil {
		t.Fatalf("empty stream must validate: %v", err)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := populated().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	var complete, instant int
	for _, ev := range file.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
		case "i":
			instant++
		}
	}
	if complete != 2 {
		t.Fatalf("%d complete events, want 2 spans", complete)
	}
	if instant != 3 {
		t.Fatalf("%d instant events, want 3 costs", instant)
	}

	buf.Reset()
	var nilTr *Tracer
	if err := nilTr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("nil chrome export is not JSON: %v", err)
	}
	if len(file.TraceEvents) != 0 {
		t.Fatalf("nil tracer exported %d events", len(file.TraceEvents))
	}
}

func TestWriteFiles(t *testing.T) {
	dir := t.TempDir()
	chrome := dir + "/out.json"
	events := dir + "/out.jsonl"
	if err := populated().WriteFiles(chrome, events); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{chrome, events} {
		if fi := mustStat(t, p); fi == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
	// Skipping both paths writes nothing and succeeds.
	if err := populated().WriteFiles("", ""); err != nil {
		t.Fatal(err)
	}
}

func TestValidateJSONLRejectsMalformedStreams(t *testing.T) {
	cases := map[string]string{
		"not json":         "hello\n",
		"unknown kind":     `{"ev":"mystery","seq":0}` + "\n",
		"seq gap":          `{"ev":"begin","seq":1,"span":0,"parent":-1,"name":"a","path":"a"}` + "\n",
		"end before begin": `{"ev":"end","seq":0,"span":0,"measured":0,"charged":0}` + "\n",
		"double begin": `{"ev":"begin","seq":0,"span":0,"parent":-1,"name":"a","path":"a"}` + "\n" +
			`{"ev":"begin","seq":1,"span":0,"parent":-1,"name":"a","path":"a"}` + "\n",
		"bad parent":           `{"ev":"begin","seq":0,"span":0,"parent":5,"name":"a","path":"a"}` + "\n",
		"unclosed span at EOF": `{"ev":"begin","seq":0,"span":0,"parent":-1,"name":"a","path":"a"}` + "\n",
		"negative rounds": `{"ev":"begin","seq":0,"span":0,"parent":-1,"name":"a","path":"a"}` + "\n" +
			`{"ev":"cost","seq":1,"span":0,"tag":"t","kind":"measured","rounds":-1}` + "\n" +
			`{"ev":"end","seq":2,"span":0,"measured":0,"charged":0}` + "\n",
		"bad cost kind": `{"ev":"begin","seq":0,"span":0,"parent":-1,"name":"a","path":"a"}` + "\n" +
			`{"ev":"cost","seq":1,"span":0,"tag":"t","kind":"imagined","rounds":1}` + "\n" +
			`{"ev":"end","seq":2,"span":0,"measured":0,"charged":0}` + "\n",
		"cost on unknown span": `{"ev":"cost","seq":0,"span":9,"tag":"t","kind":"measured","rounds":1}` + "\n",
		"truncated line": `{"ev":"begin","seq":0,"span":0,"parent":-1,"name":"a","path":"a"}` + "\n" +
			`{"ev":"end","seq":1,"span":0,"meas`,
		"out-of-order close": `{"ev":"begin","seq":0,"span":0,"parent":-1,"name":"a","path":"a"}` + "\n" +
			`{"ev":"begin","seq":1,"span":1,"parent":0,"name":"b","path":"a/b"}` + "\n" +
			`{"ev":"end","seq":2,"span":0,"measured":0,"charged":0}` + "\n" +
			`{"ev":"end","seq":3,"span":1,"measured":0,"charged":0}` + "\n",
		"unknown field on begin": `{"ev":"begin","seq":0,"span":0,"parent":-1,"name":"a","path":"a","t":123}` + "\n",
		"unknown field on cost": `{"ev":"begin","seq":0,"span":0,"parent":-1,"name":"a","path":"a"}` + "\n" +
			`{"ev":"cost","seq":1,"span":0,"tag":"t","kind":"measured","rounds":1,"wall_ns":5}` + "\n" +
			`{"ev":"end","seq":2,"span":0,"measured":1,"charged":0}` + "\n",
	}
	for name, in := range cases {
		if err := ValidateJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validated but should not", name)
		}
	}
}

// TestValidateJSONLRejectsTruncatedStream chops a real exported stream at
// every byte boundary inside its final line: a writer killed mid-record
// must never validate (the cut line is not a complete JSON object).
func TestValidateJSONLRejectsTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := populated().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if err := ValidateJSONL(bytes.NewReader(full)); err != nil {
		t.Fatalf("intact stream must validate: %v", err)
	}
	// Find the start of the final record (the stream ends with '\n').
	body := full[:len(full)-1]
	last := bytes.LastIndexByte(body, '\n') + 1
	for cut := last + 1; cut < len(body); cut++ {
		if err := ValidateJSONL(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("stream truncated at byte %d/%d validated", cut, len(full))
		}
	}
}

// TestValidateJSONLMarkEvents pins the mark record's schema: a point event
// attributed to an open span (or -1 for none), with a non-empty name,
// non-negative barrier/epoch, and node >= -1 — exactly the fields the
// distributed supervision marks carry.
func TestValidateJSONLMarkEvents(t *testing.T) {
	const open = `{"ev":"begin","seq":0,"span":0,"parent":-1,"name":"a","path":"a"}` + "\n"
	const close = `{"ev":"end","seq":2,"span":0,"measured":0,"charged":0}` + "\n"
	ok := open +
		`{"ev":"mark","seq":1,"span":0,"name":"chaos-kill","barrier":3,"epoch":1,"node":2}` + "\n" +
		close
	if err := ValidateJSONL(strings.NewReader(ok)); err != nil {
		t.Fatalf("valid mark rejected: %v", err)
	}
	unattributed := `{"ev":"mark","seq":0,"span":-1,"name":"mesh-respawn","barrier":0,"epoch":1,"node":-1}` + "\n"
	if err := ValidateJSONL(strings.NewReader(unattributed)); err != nil {
		t.Fatalf("span -1 mark must validate: %v", err)
	}

	bad := map[string]string{
		"empty name":      open + `{"ev":"mark","seq":1,"span":0,"name":"","barrier":0,"epoch":0,"node":-1}` + "\n" + close,
		"missing barrier": open + `{"ev":"mark","seq":1,"span":0,"name":"m","epoch":0,"node":-1}` + "\n" + close,
		"negative epoch":  open + `{"ev":"mark","seq":1,"span":0,"name":"m","barrier":0,"epoch":-1,"node":-1}` + "\n" + close,
		"bad node":        open + `{"ev":"mark","seq":1,"span":0,"name":"m","barrier":0,"epoch":0,"node":-2}` + "\n" + close,
		"unknown span":    open + `{"ev":"mark","seq":1,"span":9,"name":"m","barrier":0,"epoch":0,"node":-1}` + "\n" + close,
		"unknown field":   open + `{"ev":"mark","seq":1,"span":0,"name":"m","barrier":0,"epoch":0,"node":-1,"t":1}` + "\n" + close,
	}
	for name, in := range bad {
		if err := ValidateJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validated but should not", name)
		}
	}
}

func TestValidateJSONLAcceptsUnattributedCost(t *testing.T) {
	in := `{"ev":"cost","seq":0,"span":-1,"tag":"t","kind":"charged","rounds":2}` + "\n"
	if err := ValidateJSONL(strings.NewReader(in)); err != nil {
		t.Fatalf("span -1 cost must validate: %v", err)
	}
}
