package cli

import (
	"bytes"
	"flag"
	"testing"
)

// TestFlagsRegister pins the run flags' names, defaults and usage strings:
// lapsolve and flowcc list them in -h, and scripts pass them by name.
func TestFlagsRegister(t *testing.T) {
	want := []struct{ name, def, usage string }{
		{"budget", "", "abort when exhausted: 'rounds=N,wall=DUR' or bare round count 'N'"},
		{"chaos", "", "socket-level chaos plan for the tcp backend, e.g. 'seed=7,reset=0.002,partial=0.05,kill=3:1' (see transport.ParseChaosPlan); implies supervision, results stay bit-identical"},
		{"debug-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address (e.g. localhost:6060) for the duration of the run"},
		{"debug-hold", "0s", "keep the -debug-addr server up this long after the run (for scraping short runs)"},
		{"faults", "", "deterministic fault plan, e.g. 'seed=1,drop=0.01' or bare drop rate '0.01' (see cc.ParseFaultPlan)"},
		{"flight", "", "attach a transport flight recorder (tcp backend): its wall-clock event ring is written here at exit and auto-dumped on unrecoverable failure; also served at /debug/flight with -debug-addr"},
		{"trace", "", "write a Chrome trace_event file (load in Perfetto / chrome://tracing)"},
		{"trace-events", "", "write the deterministic JSONL span/cost event stream"},
		{"transport", "local", "delivery backend: 'local', 'mem' (in-process wire codec), or 'tcp[,procs=N][,bin=PATH][,supervise=1]' (multi-process loopback clique); results are bit-identical across backends"},
	}
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var f Flags
	f.Register(fs)
	var got []*flag.Flag
	fs.VisitAll(func(fl *flag.Flag) { got = append(got, fl) })
	if len(got) != len(want) {
		t.Fatalf("registered %d flags, want %d", len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g.Name != w.name || g.DefValue != w.def || g.Usage != w.usage {
			t.Errorf("flag %d: got -%s (default %q): %q\nwant -%s (default %q): %q", i, g.Name, g.DefValue, g.Usage, w.name, w.def, w.usage)
		}
	}
}

// TestOpenRejects pins Open's rejections and their messages, which the
// commands print as their error.
func TestOpenRejects(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-chaos", "seed=1"}, "-chaos requires a tcp -transport"},
		{[]string{"-flight", "F"}, "-flight requires a tcp -transport"},
		{[]string{"-faults", "drop=2"}, "cc: invalid fault plan: rate 2 outside [0,1]"},
		{[]string{"-budget", "x"}, `rounds: bad budget field "x"`},
		{[]string{"-transport", "bogus"}, `transport: unknown backend "bogus" (want local, mem, or tcp)`},
		{[]string{"-transport", "mem", "-chaos", "seed=1"}, `transport: chaos plans need the tcp backend, not "mem"`},
	} {
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		var f Flags
		f.Register(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		r, err := f.Open(&out)
		if err == nil {
			r.Close()
			t.Errorf("%q: opened, want error %q", c.args, c.want)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%q: error %q, want %q", c.args, err, c.want)
		}
	}
}

// TestOpenMem opens a run over the in-process wire codec with a fault plan
// and a budget, and closes it.
func TestOpenMem(t *testing.T) {
	f := Flags{transport: "mem", faults: "0.01", budget: "rounds=5"}
	var out bytes.Buffer
	r, err := f.Open(&out)
	if err != nil {
		t.Fatal(err)
	}
	if r.Options.Transport == nil || r.Options.Faults == nil || r.Options.Budget == nil {
		t.Fatalf("run options missing a part: %+v", r.Options)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if got, want := out.String(), "faults: drop=0.01\ntransport: mem\n"; got != want {
		t.Fatalf("printed %q, want %q", got, want)
	}
}
