package trace

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFlightNilSafety(t *testing.T) {
	var f *Flight
	if f.Enabled() {
		t.Fatal("nil recorder claims to be enabled")
	}
	f.Record(FlightEvent{Kind: "kill"})
	if f.Len() != 0 || f.Events() != nil {
		t.Fatal("nil recorder holds events")
	}
	if err := f.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := f.DumpFile(filepath.Join(t.TempDir(), "never.jsonl")); err != nil {
		t.Fatal(err)
	}

	// The nil handler serves 404 so CLIs can mount /debug/flight
	// unconditionally.
	rr := httptest.NewRecorder()
	f.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	if rr.Code != 404 {
		t.Fatalf("nil handler served %d, want 404", rr.Code)
	}
}

func TestFlightRingWrap(t *testing.T) {
	f := NewFlight(4)
	for i := 0; i < 10; i++ {
		f.Record(FlightEvent{Kind: "barrier-commit", Barrier: uint64(i), Node: -1})
	}
	if f.Len() != 4 {
		t.Fatalf("ring of 4 holds %d", f.Len())
	}
	evs := f.Events()
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Seq != want || ev.Barrier != want {
			t.Fatalf("event %d: seq=%d barrier=%d, want %d (oldest-first after wrap)", i, ev.Seq, ev.Barrier, want)
		}
	}

	// A wrapped ring's dump starts mid-stream; the validator accepts any
	// strictly increasing seq origin.
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateFlightJSONL(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("wrapped dump invalid: %v\n%s", err, buf.String())
	}
}

func TestFlightDumpFileAndHandler(t *testing.T) {
	f := NewFlight(8)
	f.Record(FlightEvent{Kind: "kill", Barrier: 1, Epoch: 0, Node: 2})
	f.Record(FlightEvent{Kind: "unrecoverable", Barrier: 1, Epoch: 3, Node: -1,
		Detail: "connection reset by peer", Messages: 12, Frames: 4})

	path := filepath.Join(t.TempDir(), "flight.jsonl")
	if err := f.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateFlightJSONL(bytes.NewReader(data)); err != nil {
		t.Fatalf("dump invalid: %v\n%s", err, data)
	}
	for _, want := range []string{`"kind":"kill"`, `"detail":"connection reset by peer"`, `"messages":12`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("dump missing %s:\n%s", want, data)
		}
	}
	// An empty dump path is the disabled configuration, not an error.
	if err := f.DumpFile(""); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	f.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	if rr.Code != 200 {
		t.Fatalf("handler served %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("handler Content-Type %q", ct)
	}
	if rr.Body.String() != string(data) {
		t.Fatal("handler body differs from the file dump")
	}
}

func TestValidateFlightJSONLRejects(t *testing.T) {
	now := time.Now().UTC().Format(time.RFC3339Nano)
	cases := map[string]string{
		"not json":        "nope\n",
		"unknown field":   `{"seq":0,"t":"` + now + `","kind":"kill","barrier":0,"epoch":0,"node":-1,"extra":1}` + "\n",
		"missing kind":    `{"seq":0,"t":"` + now + `","barrier":0,"epoch":0,"node":-1}` + "\n",
		"empty kind":      `{"seq":0,"t":"` + now + `","kind":"","barrier":0,"epoch":0,"node":-1}` + "\n",
		"bad timestamp":   `{"seq":0,"t":"yesterday","kind":"kill","barrier":0,"epoch":0,"node":-1}` + "\n",
		"bad node":        `{"seq":0,"t":"` + now + `","kind":"kill","barrier":0,"epoch":0,"node":-2}` + "\n",
		"retired acks":    `{"seq":0,"t":"` + now + `","kind":"replay","barrier":0,"epoch":0,"node":-1,"acks":4}` + "\n",
		"negative frames": `{"seq":0,"t":"` + now + `","kind":"kill","barrier":0,"epoch":0,"node":-1,"frames":-1}` + "\n",
		"seq not increasing": `{"seq":5,"t":"` + now + `","kind":"a","barrier":0,"epoch":0,"node":-1}` + "\n" +
			`{"seq":5,"t":"` + now + `","kind":"b","barrier":0,"epoch":0,"node":-1}` + "\n",
	}
	for name, in := range cases {
		if err := ValidateFlightJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := `{"seq":3,"t":"` + now + `","kind":"kill","barrier":0,"epoch":0,"node":-1}` + "\n" +
		`{"seq":9,"t":"` + now + `","kind":"replay","barrier":0,"epoch":1,"node":-1,"messages":4}` + "\n"
	if err := ValidateFlightJSONL(strings.NewReader(ok)); err != nil {
		t.Errorf("valid stream rejected: %v", err)
	}
}
