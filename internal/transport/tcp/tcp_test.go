package tcp

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"
	"testing"

	"lapcc/internal/cc"
	"lapcc/internal/transport"
)

// mix is a tiny deterministic hash for building pseudo-random but
// repeatable schedules.
func mix(vals ...int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= uint64(v) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	return h
}

// schedule returns a seeded delivery workload on n nodes: four to seven
// rounds, each split across one to three outboxes over contiguous,
// ascending source blocks. Every round each source sends zero to three
// messages of zero to three words, to any node including itself, and
// possibly several to one destination.
func schedule(n int, seed int64) [][]cc.Outbox {
	rounds := make([][]cc.Outbox, 4+mix(seed)%4)
	for r := range rounds {
		blocks := 1 + int(mix(seed, int64(r))%3)
		for b := 0; b < blocks; b++ {
			var ob cc.Outbox
			for v := b * n / blocks; v < (b+1)*n/blocks; v++ {
				h := mix(seed, int64(r), int64(v))
				for k := 0; k < int(h%4); k++ {
					to := int(mix(seed, int64(r), int64(v), int64(k)) % uint64(n))
					width := int((h >> (8 + 2*k)) % 4)
					ob.Msgs = append(ob.Msgs, cc.OutMsg{
						From: int32(v), To: int32(to), Off: int32(len(ob.Arena)), Width: int32(width),
					})
					for w := 0; w < width; w++ {
						ob.Arena = append(ob.Arena, int64(mix(seed, int64(r), int64(v), int64(k), int64(w))))
					}
				}
			}
			rounds[r] = append(rounds[r], ob)
		}
	}
	return rounds
}

// sortedBySource is the reference delivery of one round: every message,
// grouped by destination, in a stable sort by source.
func sortedBySource(n int, out []cc.Outbox) [][]cc.Message {
	type sent struct {
		to int32
		m  cc.Message
	}
	var all []sent
	for _, ob := range out {
		for _, om := range ob.Msgs {
			all = append(all, sent{om.To, cc.Message{From: int(om.From), Data: ob.Data(om)}})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].m.From < all[j].m.From })
	want := make([][]cc.Message, n)
	for _, s := range all {
		want[s.to] = append(want[s.to], s.m)
	}
	return want
}

// deliverSchedule passes every round of the seeded schedule to tr.Deliver
// and checks each delivery and its message count against sortedBySource.
// It returns the first Deliver error.
func deliverSchedule(t *testing.T, tr cc.Transport, n int, seed int64) error {
	t.Helper()
	for r, out := range schedule(n, seed) {
		got, st, err := tr.Deliver(r, n, out)
		if err != nil {
			return fmt.Errorf("n=%d seed=%d round %d: %w", n, seed, r, err)
		}
		want := sortedBySource(n, out)
		total := 0
		for d := range want {
			total += len(want[d])
			if !slices.EqualFunc(got[d], want[d], func(a, b cc.Message) bool {
				return a.From == b.From && slices.Equal(a.Data, b.Data)
			}) {
				t.Fatalf("n=%d seed=%d round %d: inbox %d diverges\nwant %v\ngot  %v", n, seed, r, d, want[d], got[d])
			}
		}
		if st.Messages != int64(total) {
			t.Fatalf("n=%d seed=%d round %d: delivered %d messages, sent %d", n, seed, r, st.Messages, total)
		}
	}
	return nil
}

// TestDeliverTCP: the multi-process backend delivers every round of a
// seeded schedule in ascending source order, across several clique sizes,
// including n not divisible by the process count and n smaller than it.
func TestDeliverTCP(t *testing.T) {
	tr, err := New(Options{Procs: 4, Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for seed := int64(1); seed <= 6; seed++ {
		n := []int{3, 7, 8, 12, 17, 25}[seed-1]
		if err := deliverSchedule(t, tr, n, seed); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMultiChunkDeliver: one barrier moving more than 2×ChunkMsgs messages
// from worker 0's nodes to worker 1's nodes arrives as several in-order
// chunks, assembles into exactly the expected inboxes, and costs
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
		t.Fatal("multi-chunk inboxes diverge from the expected delivery")
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
