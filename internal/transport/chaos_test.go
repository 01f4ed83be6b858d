package transport

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"
)

// TestChaosPlanParseRoundTrip: String() output re-parses to the same plan
// (the coordinator hands plans to worker processes through this syntax).
func TestChaosPlanParseRoundTrip(t *testing.T) {
	plans := []*ChaosPlan{
		{Seed: 7},
		{Seed: 1, Reset: 0.002, Partial: 0.05, Stall: 0.01},
		{Seed: 9, Reset: 0.1, ResetEpochs: 2, StallDelay: 3 * time.Millisecond},
		{Seed: 3, Kills: []Kill{{Barrier: 6, Proc: 1}, {Barrier: 20, Proc: 2}}},
		{Seed: 4, Stall: 0.5, StallDelay: time.Second},
	}
	for _, p := range plans {
		got, err := ParseChaosPlan(p.String())
		if err != nil {
			t.Fatalf("re-parsing %q: %v", p.String(), err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip diverges:\n in  %+v\n out %+v", p, got)
		}
	}
	if p, err := ParseChaosPlan(""); p != nil || err != nil {
		t.Fatalf("empty spec: got (%v, %v), want (nil, nil)", p, err)
	}
}

func TestChaosPlanParseRejects(t *testing.T) {
	for _, bad := range []string{
		"frobnicate=1", "reset=2", "reset=-0.1", "kill=5", "kill=x:1",
		"reset=0.5,partial=0.4,stall=0.3", "seed", "stalldelay=fast",
		"stall=0.5,stalldelay=2s",
	} {
		if _, err := ParseChaosPlan(bad); !errors.Is(err, ErrBadChaosPlan) {
			t.Fatalf("ParseChaosPlan(%q): got %v, want ErrBadChaosPlan", bad, err)
		}
	}
}

// TestChaosDecisionsDeterministic: the fate of a write is a pure function of
// (seed, epoch, endpoints, index), and epochs decorrelate — the property the
// supervisor leans on so a respawned mesh does not replay its predecessor's
// reset.
func TestChaosDecisionsDeterministic(t *testing.T) {
	p := &ChaosPlan{Seed: 42, Reset: 0.05, Partial: 0.2, Stall: 0.1, ResetEpochs: 4}
	var first []chaosAction
	for run := 0; run < 2; run++ {
		var acts []chaosAction
		for w := uint64(0); w < 512; w++ {
			acts = append(acts, p.action(0, 1, 2, w))
		}
		if run == 0 {
			first = acts
			continue
		}
		if !reflect.DeepEqual(first, acts) {
			t.Fatal("identical inputs produced different decisions")
		}
	}
	counts := map[chaosAction]int{}
	for _, a := range first {
		counts[a]++
	}
	for _, a := range []chaosAction{chaosReset, chaosPartial, chaosStall} {
		if counts[a] == 0 {
			t.Fatalf("action %d never fired over 512 writes at its configured rate", a)
		}
	}
	diverged := false
	for w := uint64(0); w < 512; w++ {
		if p.action(1, 1, 2, w) != first[w] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("epoch 1 replayed epoch 0's decisions exactly")
	}
}

// TestChaosResetEpochBound: resets fire only below ResetEpochs, so a
// supervised run always converges to a clean mesh.
func TestChaosResetEpochBound(t *testing.T) {
	p := &ChaosPlan{Seed: 5, Reset: 1}
	if p.action(0, 0, 1, 0) != chaosReset {
		t.Fatal("epoch 0 write survived a reset rate of 1")
	}
	for epoch := uint64(1); epoch < 4; epoch++ {
		if p.action(epoch, 0, 1, 0) == chaosReset {
			t.Fatalf("epoch %d injected a reset past ResetEpochs", epoch)
		}
	}
}

// TestChaosConnPartialAndReset drives real frames through a chaos-wrapped
// loopback connection: partial writes must reassemble transparently via
// ReadFrame, and a reset must surface as ErrChaosReset on the writer and a
// read error on the peer.
func TestChaosConnPartialAndReset(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	peer := <-accepted
	defer peer.Close()

	// Partial-only plan: every write fragments, every frame still arrives.
	conn := (&ChaosPlan{Seed: 1, Partial: 1}).WrapConn(raw, 0, 1, 2)
	want := &Frame{Type: FrameData, Round: 3, Node: 1, Seq: 0, Total: 1,
		Msgs: []Msg{{From: 1, To: 5, Data: []int64{7, -8, 9}}}}
	for i := 0; i < 4; i++ {
		if _, err := WriteFrame(conn, want); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, err := ReadFrame(peer)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d diverged across partial writes", i)
		}
	}

	// Reset plan: the next write kills the connection.
	conn = (&ChaosPlan{Seed: 1, Reset: 1}).WrapConn(raw, 0, 1, 2)
	if _, err := WriteFrame(conn, want); !errors.Is(err, ErrChaosReset) {
		t.Fatalf("reset write: got %v, want ErrChaosReset", err)
	}
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadFrame(peer); err == nil {
		t.Fatal("peer read succeeded after injected reset")
	}
}

// TestChaosWrapConnPassthrough: nil plans and kill-only plans do not wrap.
func TestChaosWrapConnPassthrough(t *testing.T) {
	var p *ChaosPlan
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if got := p.WrapConn(c1, 0, 0, 1); got != c1 {
		t.Fatal("nil plan wrapped the connection")
	}
	killOnly := &ChaosPlan{Seed: 2, Kills: []Kill{{Barrier: 1, Proc: 0}}}
	if got := killOnly.WrapConn(c1, 0, 0, 1); got != c1 {
		t.Fatal("kill-only plan wrapped the connection")
	}
	if kills := killOnly.KillsAt(1); len(kills) != 1 || kills[0] != 0 {
		t.Fatalf("KillsAt(1) = %v", kills)
	}
	if kills := killOnly.KillsAt(2); kills != nil {
		t.Fatalf("KillsAt(2) = %v", kills)
	}
}

// FuzzParseChaosPlan fuzzes the -chaos spec parser: no input panics, every
// accepted plan passes Validate, and it re-parses from its String() to an
// equal plan, the form in which the coordinator hands it to spawned
// workers.
func FuzzParseChaosPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseChaosPlan(spec)
		if err != nil {
			if !errors.Is(err, ErrBadChaosPlan) {
				t.Fatalf("ParseChaosPlan(%q): untyped error %v", spec, err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParseChaosPlan(%q) accepted an invalid plan %+v: %v", spec, p, err)
		}
		q, err := ParseChaosPlan(p.String())
		if err != nil {
			t.Fatalf("re-parsing %q (from %q): %v", p.String(), spec, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("ParseChaosPlan(%q) = %+v, but its String %q re-parses to %+v", spec, p, p.String(), q)
		}
	})
}
