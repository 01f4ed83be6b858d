package tcp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"lapcc/internal/cc"
	"lapcc/internal/trace"
)

// TestTracedBarrierTraffic pins the figures of the trace plane's worker
// subtrees: with a tracer attached to a 3-worker mesh, every committed
// barrier k adds one node-p/barrier-k span per worker p whose "sent"
// traffic is the messages and payload words of the sends p owns by source
// (v mod 3) and whose "shard" traffic is the same for the sends p owns by
// destination.
func TestTracedBarrierTraffic(t *testing.T) {
	const n, procs = 7, 3
	type send struct{ from, to, width int32 }
	barriers := [][]send{
		{{0, 1, 2}, {0, 6, 0}, {1, 4, 3}, {2, 2, 1}, {3, 5, 4}, {4, 0, 1}, {5, 3, 2}, {6, 6, 5}},
		// Worker 2 owns no sender here, and nothing goes to worker 1.
		{{0, 3, 1}, {0, 2, 6}, {3, 0, 2}, {4, 2, 0}, {6, 5, 3}},
	}

	tr, err := New(Options{Procs: procs, HeartbeatInterval: -1, Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tracer := trace.New()
	tr.SetTracer(tracer)

	type traffic struct{ messages, words int64 }
	want := map[string]traffic{}
	for k, sends := range barriers {
		for p := 0; p < procs; p++ {
			// A worker with no traffic still reports zeros.
			want[fmt.Sprintf("node-%d/barrier-%d sent", p, k)] = traffic{}
			want[fmt.Sprintf("node-%d/barrier-%d shard", p, k)] = traffic{}
		}
		var ob cc.Outbox
		for _, s := range sends {
			ob.Msgs = append(ob.Msgs, cc.OutMsg{From: s.from, To: s.to, Off: int32(len(ob.Arena)), Width: s.width})
			for w := int32(0); w < s.width; w++ {
				ob.Arena = append(ob.Arena, int64(k)<<32|int64(len(ob.Arena)))
			}
			sent := fmt.Sprintf("node-%d/barrier-%d sent", s.from%procs, k)
			shard := fmt.Sprintf("node-%d/barrier-%d shard", s.to%procs, k)
			want[sent] = traffic{want[sent].messages + 1, want[sent].words + int64(s.width)}
			want[shard] = traffic{want[shard].messages + 1, want[shard].words + int64(s.width)}
		}
		if _, _, err := tr.Deliver(k, n, []cc.Outbox{ob}); err != nil {
			t.Fatalf("barrier %d: %v", k, err)
		}
	}

	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateJSONL(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("traced barriers fail validation: %v", err)
	}
	paths := map[int]string{}
	got := map[string]traffic{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev struct {
			Ev, Path, Tag   string
			Span            int
			Messages, Words int64
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Ev {
		case "begin":
			paths[ev.Span] = ev.Path
		case "traffic":
			key := paths[ev.Span] + " " + ev.Tag
			if _, dup := got[key]; dup {
				t.Fatalf("%s reported twice", key)
			}
			got[key] = traffic{ev.Messages, ev.Words}
		}
	}
	if len(paths) != 2*procs*len(barriers) {
		t.Fatalf("traced %d spans, want a node and a barrier span per worker and barrier (%d): %v",
			len(paths), 2*procs*len(barriers), paths)
	}
	for key, w := range want {
		if g, ok := got[key]; !ok || g != w {
			t.Errorf("%s: got %+v (present %v), want %+v", key, g, ok, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("traced %d traffic records, want %d: %v", len(got), len(want), got)
	}
}
