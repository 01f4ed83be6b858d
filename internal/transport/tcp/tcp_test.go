package tcp

import (
	"io"
	"reflect"
	"testing"

	"lapcc/internal/cc"
	"lapcc/internal/transport"
)

// mix is a tiny deterministic hash for building pseudo-random but
// repeatable programs (no shared RNG: step functions run concurrently).
func mix(vals ...int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= uint64(v) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	return h
}

// program returns a deterministic step function plus per-node transcripts;
// two engine runs are equivalent iff transcripts, rounds, and messages all
// match (order included).
func program(n int, seed int64) (cc.Step, [][]int64) {
	tr := make([][]int64, n)
	step := func(node, round int, inbox []cc.Message, send func(int, ...int64)) bool {
		for _, m := range inbox {
			tr[node] = append(tr[node], int64(round), int64(m.From), int64(len(m.Data)))
			tr[node] = append(tr[node], m.Data...)
		}
		if round >= 1+int(mix(seed, int64(node))%5) {
			return true
		}
		h := mix(seed, int64(node), int64(round))
		k := int(h % 4)
		if k > n-1 {
			k = n - 1
		}
		start := int((h >> 8) % uint64(n-1))
		width := 1 + int((h>>32)%3)
		var payload [3]int64
		for w := 0; w < width; w++ {
			payload[w] = int64(mix(seed, int64(node), int64(round), int64(w)))
		}
		for i := 0; i < k; i++ {
			send((node+1+(start+i)%(n-1))%n, payload[:width]...)
		}
		return false
	}
	return step, tr
}

type outcome struct {
	used, rounds, messages int64
	faults                 cc.FaultStats
}

// runEngine executes the seeded program on a fresh engine with the given
// transport (nil = in-process merge) and optional fault plan.
func runEngine(t *testing.T, n int, seed int64, tr cc.Transport, plan *cc.FaultPlan) (outcome, [][]int64) {
	t.Helper()
	e := cc.NewEngine(n)
	if tr != nil {
		e.SetTransport(tr)
	}
	if plan != nil {
		e.SetFaults(plan)
	}
	step, transcripts := program(n, seed)
	used, err := e.Run(step, 256)
	if err != nil {
		t.Fatalf("run(n=%d, seed=%d): %v", n, seed, err)
	}
	return outcome{used: used, rounds: e.Rounds(), messages: e.Messages(), faults: e.FaultStats()}, transcripts
}

func diffTranscripts(t *testing.T, label string, want, got [][]int64) {
	t.Helper()
	for node := range want {
		if !reflect.DeepEqual(want[node], got[node]) {
			t.Fatalf("%s: node %d transcript diverges\nlocal: %v\ntcp:   %v", label, node, want[node], got[node])
		}
	}
}

// TestEngineDifferentialTCP: the multi-process backend reproduces the
// in-process merge bit for bit — transcripts, round counts, message counts —
// across several clique sizes, including n not divisible by the process
// count and n smaller than it.
func TestEngineDifferentialTCP(t *testing.T) {
	tr, err := New(Options{Procs: 4, Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for seed := int64(1); seed <= 6; seed++ {
		n := []int{3, 7, 8, 12, 17, 25}[seed-1]
		base, baseTr := runEngine(t, n, seed, nil, nil)
		got, gotTr := runEngine(t, n, seed, tr, nil)
		if got != base {
			t.Fatalf("n=%d seed=%d: tcp outcome %+v != local %+v", n, seed, got, base)
		}
		diffTranscripts(t, "clean", baseTr, gotTr)
	}
}

// TestEngineDifferentialTCPFaulted: a fault plan injected above the
// transport boundary charges the same fates and yields the same transcripts
// no matter which backend delivered the clean messages underneath.
func TestEngineDifferentialTCPFaulted(t *testing.T) {
	tr, err := New(Options{Procs: 3, Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	plan := func() *cc.FaultPlan {
		return &cc.FaultPlan{Seed: 77, Drop: 0.05, Duplicate: 0.04, Delay: 0.05, MaxDelay: 2}
	}
	for seed := int64(1); seed <= 4; seed++ {
		n := []int{5, 9, 13, 20}[seed-1]
		base, baseTr := runEngine(t, n, seed, nil, plan())
		got, gotTr := runEngine(t, n, seed, tr, plan())
		if got != base {
			t.Fatalf("n=%d seed=%d: faulted tcp outcome %+v != local %+v", n, seed, got, base)
		}
		diffTranscripts(t, "faulted", baseTr, gotTr)
	}
}

// TestMultiChunkDeliver: one barrier moving more than 2×ChunkMsgs messages
// from worker 0's nodes to worker 1's nodes arrives as several in-order
// chunks, assembles into exactly the local merge's inboxes, and costs
// exactly one frame per chunk (plus worker 1's empty chunk back).
func TestMultiChunkDeliver(t *testing.T) {
	const n, perSrc = 8, 600 // sources 0,2,4,6 (worker 0) send 2400 remote messages
	tr, err := New(Options{Procs: 2, Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	var ob cc.Outbox
	want := make([][]cc.Message, n)
	remote := 0
	for src := 0; src < n; src += 2 {
		for k := 0; k < perSrc+1; k++ {
			to := 1 + 2*(k%4) // odd: owned by worker 1
			if k == perSrc {
				to = 0 // one local message per source
			} else {
				remote++
			}
			ob.Msgs = append(ob.Msgs, cc.OutMsg{From: int32(src), To: int32(to), Off: int32(len(ob.Arena)), Width: 2})
			ob.Arena = append(ob.Arena, int64(src), int64(k))
			want[to] = append(want[to], cc.Message{From: src, Data: []int64{int64(src), int64(k)}})
		}
	}
	if remote <= 2*transport.ChunkMsgs {
		t.Fatalf("workload moves only %d remote messages", remote)
	}
	got, _, err := tr.Deliver(0, n, []cc.Outbox{ob})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("multi-chunk inboxes diverge from the local merge")
	}
	chunks := (remote + transport.ChunkMsgs - 1) / transport.ChunkMsgs
	if st := tr.Stats(); st.Frames != int64(chunks+1) {
		t.Fatalf("stats %+v, want %d frames (%d chunks + 1 empty)", st, chunks+1, chunks)
	}
}

// TestOpenSpecs: the -transport spec parser's backends and rejections.
func TestOpenSpecs(t *testing.T) {
	if tr, err := Open("local"); err != nil || tr != nil {
		t.Fatalf("local: got (%v, %v), want (nil, nil)", tr, err)
	}
	tr, err := Open("mem")
	if err != nil || tr == nil {
		t.Fatalf("mem: got (%v, %v)", tr, err)
	}
	tr.Close()
	tr, err = Open("tcp,procs=2")
	if err != nil {
		t.Fatalf("tcp,procs=2: %v", err)
	}
	if tr.(*Transport).Procs() != 2 {
		t.Fatalf("procs = %d, want 2", tr.(*Transport).Procs())
	}
	tr.Close()
	for _, bad := range []string{"carrier-pigeon", "tcp,procs=zero", "tcp,frobnicate=1", "mem,x=1", "local,x=1", "tcp,procs"} {
		if _, err := Open(bad); err == nil {
			t.Fatalf("Open(%q) accepted", bad)
		}
	}
}
