package tcp

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"lapcc/internal/cc"
	"lapcc/internal/transport"
)

// TestDeliverRejectsBadEndpoints: a send whose sender or recipient lies
// outside 0..n-1 is an error naming it on both serializing backends, never
// a panic, and the same transport then delivers a clean barrier.
func TestDeliverRejectsBadEndpoints(t *testing.T) {
	const n = 4
	tr, err := New(Options{Procs: 2, HeartbeatInterval: -1, Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	backends := []struct {
		name string
		tr   cc.Transport
	}{{"mem", transport.NewMem()}, {"tcp", tr}}
	cases := []struct {
		name     string
		from, to int32
		want     string
	}{
		{"from -1", -1, 0, "sender -1"},
		{"from n", n, 0, fmt.Sprintf("sender %d", n)},
		{"to -1", 0, -1, "recipient -1"},
		{"to n", 0, n, fmt.Sprintf("recipient %d", n)},
	}
	for _, be := range backends {
		for seed, tc := range cases {
			t.Run(be.name+"/"+tc.name, func(t *testing.T) {
				bad := []cc.Outbox{{
					Msgs:  []cc.OutMsg{{From: 0, To: 1, Width: 1}, {From: tc.from, To: tc.to, Off: 1, Width: 1}},
					Arena: []int64{7, 8},
				}}
				_, _, err := be.tr.Deliver(0, n, bad)
				if err == nil || !strings.Contains(err.Error(), tc.want+" out of range") {
					t.Fatalf("got %v, want an error naming %q as out of range", err, tc.want)
				}
				if err := deliverSchedule(t, be.tr, n, int64(seed+1)); err != nil {
					t.Fatalf("clean barrier after the rejected one: %v", err)
				}
			})
		}
	}
}

// TestDeliverLargeBidirectional guards the worker's direct peer writes
// against deadlock at volume: both workers write megabytes of chunks to
// each other in the same barrier, far beyond the socket buffers, so each
// finishes only if its peer's reader keeps draining while the peer is
// itself writing. Every source sends 3000 messages of 300 words to a node
// of the other worker, about 6 chunks and 14 MB each way per barrier, for
// three barriers in a row, and every delivered word is checked. (Whether
// the two workers' writes overlap here depends on scheduling;
// TestSimultaneousPeerWrites forces the overlap.)
func TestDeliverLargeBidirectional(t *testing.T) {
	if testing.Short() {
		t.Skip("moves about 90 MB through loopback sockets")
	}
	const n, perSrc, width = 4, 3000, 300
	tr, err := New(Options{Procs: 2, BarrierTimeout: 5 * time.Second, HeartbeatInterval: -1, Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// A deadlocked worker never lets go of its connections, so bound
		// the shutdown too rather than hang the test binary.
		closed := make(chan struct{})
		go func() {
			tr.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Error("the workers did not shut down")
		}
	}()
	word := func(r, src, k, w int) int64 { return int64(r)<<48 | int64(src)<<40 | int64(k)<<16 | int64(w) }
	var ob cc.Outbox
	for r := 0; r < 3; r++ {
		ob.Msgs, ob.Arena = ob.Msgs[:0], ob.Arena[:0]
		for src := 0; src < n; src++ {
			to := (src + 1 + 2*(r%2)) % n // odd from even and even from odd: the other worker
			for k := 0; k < perSrc; k++ {
				ob.Msgs = append(ob.Msgs, cc.OutMsg{From: int32(src), To: int32(to), Off: int32(len(ob.Arena)), Width: width})
				for w := 0; w < width; w++ {
					ob.Arena = append(ob.Arena, word(r, src, k, w))
				}
			}
		}
		got, st, err := tr.Deliver(r, n, []cc.Outbox{ob})
		if err != nil {
			t.Fatalf("barrier %d: %v", r, err)
		}
		if chunks := 2 * ((2*perSrc + transport.ChunkMsgs - 1) / transport.ChunkMsgs); st.Frames != int64(chunks) {
			t.Fatalf("barrier %d moved %d frames, want %d chunks", r, st.Frames, chunks)
		}
		for d := 0; d < n; d++ {
			src := (d - 1 - 2*(r%2) + 2*n) % n
			if len(got[d]) != perSrc {
				t.Fatalf("barrier %d: inbox %d holds %d messages, want %d", r, d, len(got[d]), perSrc)
			}
			for k, m := range got[d] {
				if m.From != src || len(m.Data) != width {
					t.Fatalf("barrier %d: inbox %d message %d from %d with %d words, want from %d with %d", r, d, k, m.From, len(m.Data), src, width)
				}
				for w, v := range m.Data {
					if v != word(r, src, k, w) {
						t.Fatalf("barrier %d: inbox %d message %d word %d is %#x, want %#x", r, d, k, w, v, word(r, src, k, w))
					}
				}
			}
		}
	}
}

// TestDeliverAllocations pins the allocations of one warm barrier at zero:
// a cc.Net.Route into a RouteBuffer of one 2-word packet per node, n = 64,
// over an in-process 2-worker mesh. AllocsPerRun counts process-wide, so the
// figure includes the worker goroutines' reads, decodes and writes, and the
// coordinator's, whose payload arenas are recycled at the next barrier
// because the RouteBuffer keeps its own copy of every payload.
func TestDeliverAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	const n = 64
	tr, err := New(Options{Procs: 2, HeartbeatInterval: -1, Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	packets := make([]cc.Packet, n)
	for v := range packets {
		packets[v] = cc.Packet{Src: v, Dst: (v*7 + 1) % n, Data: []int64{int64(v), 1}}
	}
	var buf cc.RouteBuffer
	net := cc.Net{Transport: tr}
	route := func() {
		if _, _, err := net.Route(n, packets, "alloc", &buf); err != nil {
			t.Fatal(err)
		}
	}
	route() // warm connections, readers and pools
	a := testing.AllocsPerRun(200, route)
	if a != 0 {
		t.Fatalf("a warm barrier allocates %v times, want 0", a)
	}
	t.Logf("a warm barrier allocates %v times", a)
}

// countedTransport counts a transport's Deliver calls.
type countedTransport struct {
	cc.Transport
	calls int
}

func (c *countedTransport) Deliver(round, n int, out []cc.Outbox) ([][]cc.Message, cc.DeliveryStats, error) {
	c.calls++
	return c.Transport.Deliver(round, n, out)
}

// TestRouteBatchedViaFrameLimit routes, over a 2-worker mesh, a set whose
// admissible batches each fit in a wire frame but together do not: node 0
// sends 64 packets of 32768 words on an 8-clique, 8 batches of 2 MiB,
// 16.8 MB in all against MaxFrameBytes' 16 MiB. All 64 messages are
// node 0's, so a delivery sharing every batch — which n² = 64 messages
// would still allow — puts them all in worker 0's one Round frame, and
// that frame cannot be sent. Batches past a megabyte ship alone, one
// barrier each, and the output equals the in-process route's.
func TestRouteBatchedViaFrameLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("moves about 34 MB through loopback sockets")
	}
	const n, k, width = 8, 64, 1 << 15
	packets := make([]cc.Packet, k)
	for i := range packets {
		data := make([]int64, width)
		for w := range data {
			data[w] = int64(i)<<32 | int64(w)
		}
		packets[i] = cc.Packet{Src: 0, Dst: 1 + i%(n-1), Data: data}
	}
	if frame := k * (12 + 8*width); frame <= transport.MaxFrameBytes {
		t.Fatalf("the merged Round frame would hold %d bytes, within the %d limit", frame, transport.MaxFrameBytes)
	}
	want, wantRes, err := cc.Net{}.Route(n, packets, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := New(Options{Procs: 2, BarrierTimeout: 10 * time.Second, HeartbeatInterval: -1, Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	tr := &countedTransport{Transport: mesh}
	got, res, err := cc.Net{Transport: tr}.Route(n, packets, "wide", nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.calls != k/n {
		t.Fatalf("%d barriers, want one per batch: %d", tr.calls, k/n)
	}
	if res != wantRes {
		t.Fatalf("result %+v, in process %+v", res, wantRes)
	}
	for d := range want {
		if len(got[d]) != len(want[d]) {
			t.Fatalf("node %d received %d packets, in process %d", d, len(got[d]), len(want[d]))
		}
		for j, p := range got[d] {
			q := want[d][j]
			if p.Src != q.Src || p.Dst != q.Dst || !slices.Equal(p.Data, q.Data) {
				t.Fatalf("node %d packet %d differs from the in-process delivery", d, j)
			}
		}
	}
}
