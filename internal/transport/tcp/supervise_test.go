package tcp

import (
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"lapcc/internal/transport"
)

// TestSuperviseKillRecovery: chaos-scheduled worker kills under supervision
// are invisible to the caller — the killed barrier replays on a respawned
// mesh, every delivery still matches the reference, and the final checkpoint
// digests are bit-identical to an undisturbed supervised run.
func TestSuperviseKillRecovery(t *testing.T) {
	const n, seed = 12, 4
	clean, err := New(Options{Procs: 4, Supervise: true, HeartbeatInterval: -1, Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	if err := deliverSchedule(t, clean, n, seed); err != nil {
		t.Fatal(err)
	}
	ckClean := clean.Checkpoint()

	chaotic, err := New(Options{
		Procs: 4, Supervise: true, HeartbeatInterval: -1, Stderr: io.Discard,
		BarrierTimeout: 10 * time.Second,
		Chaos: &transport.ChaosPlan{Seed: 1, Kills: []transport.Kill{
			{Barrier: 1, Proc: 1},
			{Barrier: 3, Proc: 2},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer chaotic.Close()
	if err := deliverSchedule(t, chaotic, n, seed); err != nil {
		t.Fatal(err)
	}

	rec := chaotic.Recovery()
	if rec.Kills == 0 || rec.Restarts == 0 || rec.Respawns == 0 || rec.ReplayedBarriers == 0 {
		t.Fatalf("kills were scheduled but recovery shows %+v", rec)
	}
	if chaotic.Epoch() == 0 {
		t.Fatal("mesh epoch never advanced across a restart")
	}

	ck := chaotic.Checkpoint()
	if ck.Barriers != ckClean.Barriers || ck.InDigest != ckClean.InDigest ||
		!reflect.DeepEqual(ck.ShardDigests, ckClean.ShardDigests) {
		t.Fatalf("final checkpoint diverges after recovery:\nclean %+v\nkilled %+v", ckClean, ck)
	}
	if ck.Epoch == 0 {
		t.Fatal("recovered checkpoint still claims epoch 0")
	}
}

// TestSuperviseResetRecovery: socket-level connection resets inside the
// mesh collapse the worker set; the supervisor respawns it (resets are
// bounded to epoch 0, so the run converges) and the caller sees nothing.
func TestSuperviseResetRecovery(t *testing.T) {
	tr, err := New(Options{
		Procs: 4, Supervise: true, HeartbeatInterval: -1, Stderr: io.Discard,
		BarrierTimeout: 10 * time.Second,
		Chaos:          &transport.ChaosPlan{Seed: 11, Reset: 0.05, Partial: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for seed := int64(1); seed <= 3; seed++ {
		n := []int{7, 12, 17}[seed-1]
		if err := deliverSchedule(t, tr, n, seed); err != nil {
			t.Fatal(err)
		}
	}
	if rec := tr.Recovery(); rec.Restarts == 0 {
		t.Fatalf("reset rate 0.05 never collapsed the mesh: %+v", rec)
	}
}

// TestSuperviseHeartbeat: a worker dying *between* barriers is detected by
// the ping/pong probe, the mesh is respawned eagerly, and the next
// deliveries proceed as if nothing happened.
func TestSuperviseHeartbeat(t *testing.T) {
	tr, err := New(Options{
		Procs: 3, Supervise: true,
		HeartbeatInterval: 25 * time.Millisecond,
		BarrierTimeout:    10 * time.Second,
		Stderr:            io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Sever one worker's coordinator link between barriers — for an
	// in-process worker that is exactly what a death looks like.
	tr.mu.Lock()
	tr.conns[1].Close()
	tr.mu.Unlock()

	deadline := time.Now().Add(15 * time.Second)
	for {
		rec := tr.Recovery()
		if rec.HeartbeatFailures >= 1 && rec.Restarts >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat never detected the dead worker: %+v", rec)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := deliverSchedule(t, tr, 8, 5); err != nil {
		t.Fatal(err)
	}
	if tr.Epoch() == 0 {
		t.Fatal("mesh epoch never advanced")
	}
}

// TestUnsupervisedKillFails pins the pre-supervision contract: without
// Options.Supervise a dead worker is a run-failing transport error, not a
// silent retry.
func TestUnsupervisedKillFails(t *testing.T) {
	tr, err := New(Options{
		Procs: 2, Stderr: io.Discard,
		Chaos: &transport.ChaosPlan{Seed: 3, Kills: []transport.Kill{{Barrier: 0, Proc: 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := deliverSchedule(t, tr, 6, 2); err == nil {
		t.Fatal("unsupervised run survived a worker kill")
	}
}

// TestUnsupervisedCheckpoint: only a replay reads the checkpoint digests,
// so an unsupervised transport skips them, yet its checkpoint still counts
// the committed barriers and their delivery stats. A supervised transport
// digests the same schedule's input and every worker's shard.
func TestUnsupervisedCheckpoint(t *testing.T) {
	const n, seed = 7, 3
	for _, supervise := range []bool{false, true} {
		tr, err := New(Options{Procs: 2, Supervise: supervise, HeartbeatInterval: -1, Stderr: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		if err := deliverSchedule(t, tr, n, seed); err != nil {
			t.Fatal(err)
		}
		ck := tr.Checkpoint()
		tr.Close()
		if want := uint64(len(schedule(n, seed))); ck.Barriers != want {
			t.Fatalf("supervise=%v: checkpoint counts %d barriers, want %d", supervise, ck.Barriers, want)
		}
		if st := tr.Stats(); ck.Stats != st || st.Messages == 0 || st.Frames == 0 {
			t.Fatalf("supervise=%v: checkpoint stats %+v, transport stats %+v", supervise, ck.Stats, st)
		}
		digested := ck.InDigest != 0 || len(ck.ShardDigests) != 0
		if supervise && (ck.InDigest == 0 || len(ck.ShardDigests) != 2) {
			t.Fatalf("supervised checkpoint lacks digests: %+v", ck)
		}
		if !supervise && digested {
			t.Fatalf("unsupervised checkpoint carries digests: %+v", ck)
		}
	}
}

// TestSuperviseOptionDefaults: the robustness knobs default sanely and only
// activate the supervised ones under Supervise.
func TestSuperviseOptionDefaults(t *testing.T) {
	var o Options
	o.defaults()
	if o.DialTimeout != 10*time.Second {
		t.Fatalf("timeout defaults: %+v", o)
	}
	if o.BarrierTimeout != 0 || o.HeartbeatInterval != 0 {
		t.Fatalf("unsupervised transport grew supervision deadlines: %+v", o)
	}
	s := Options{Supervise: true}
	s.defaults()
	if s.BarrierTimeout != 60*time.Second || s.HeartbeatInterval != time.Second {
		t.Fatalf("supervised defaults: %+v", s)
	}
	d := Options{Supervise: true, HeartbeatInterval: -1}
	d.defaults()
	if d.HeartbeatInterval != -1 {
		t.Fatalf("negative heartbeat interval was overridden: %v", d.HeartbeatInterval)
	}
	if _, err := New(Options{Procs: 2, Chaos: &transport.ChaosPlan{Reset: 7}}); err == nil {
		t.Fatal("New accepted an invalid chaos plan")
	}
	if _, err := New(Options{Procs: 2, Chaos: &transport.ChaosPlan{Kills: []transport.Kill{{Barrier: 0, Proc: 5}}}}); err == nil {
		t.Fatal("New accepted a kill targeting a worker outside the process set")
	}
}

// TestOpenSupervised: the -transport spec's robustness keys and the
// chaos-plan attachment point.
func TestOpenSupervised(t *testing.T) {
	tr, err := Open("tcp,procs=2,supervise=1,barrier=2s")
	if err != nil {
		t.Fatal(err)
	}
	tt := tr.(*Transport)
	if !tt.opts.Supervise || tt.opts.BarrierTimeout != 2*time.Second {
		t.Fatalf("spec options not applied: %+v", tt.opts)
	}
	tr.Close()

	plan := &transport.ChaosPlan{Seed: 9, Kills: []transport.Kill{{Barrier: 0, Proc: 1}}}
	tr, err = OpenWith("tcp,procs=2", plan)
	if err != nil {
		t.Fatal(err)
	}
	if tt := tr.(*Transport); !tt.opts.Supervise {
		t.Fatal("a chaos plan did not imply supervision")
	}
	tr.Close()

	for _, bad := range []string{"tcp,supervise=maybe", "tcp,barrier=later"} {
		if _, err := Open(bad); err == nil {
			t.Fatalf("Open(%q) accepted", bad)
		}
	}
	// The mesh has no retransmission schedule to tune.
	for _, spec := range []string{"tcp,ack=50ms", "tcp,retries=4"} {
		if _, err := Open(spec); err == nil || !strings.Contains(err.Error(), "unknown option") {
			t.Fatalf("Open(%q): got %v, want an unknown-option error", spec, err)
		}
	}
	if _, err := OpenWith("mem", plan); err == nil {
		t.Fatal("OpenWith attached a chaos plan to the mem backend")
	}
	if _, err := OpenWith("local", plan); err == nil {
		t.Fatal("OpenWith attached a chaos plan to the local backend")
	}
}
