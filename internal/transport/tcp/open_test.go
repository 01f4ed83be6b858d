package tcp

import (
	"testing"

	"lapcc/internal/transport"
)

// FuzzParseSpec fuzzes the -transport spec parser with a -chaos plan
// alongside: no input panics, and an accepted spec names a known backend;
// a tcp one asks for at most maxProcs workers, carries a valid chaos plan
// and supervises when it has one. It only parses: it never starts a
// transport.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec, chaosSpec string) {
		chaos, err := transport.ParseChaosPlan(chaosSpec)
		if err != nil {
			chaos = nil
		}
		backend, opts, err := parseSpec(spec, chaos)
		if err != nil {
			return
		}
		switch backend {
		case "local", "mem":
			if chaos != nil {
				t.Fatalf("parseSpec(%q) accepted a chaos plan for the %s backend", spec, backend)
			}
		case "tcp":
			if opts.Procs < 0 || opts.Procs > maxProcs {
				t.Fatalf("parseSpec(%q) accepted %d procs", spec, opts.Procs)
			}
			if err := opts.Chaos.Validate(); err != nil {
				t.Fatalf("parseSpec(%q) carries an invalid chaos plan: %v", spec, err)
			}
			if opts.Chaos != nil && !opts.Supervise {
				t.Fatalf("parseSpec(%q, %q): a chaos plan without supervision", spec, chaosSpec)
			}
		default:
			t.Fatalf("parseSpec(%q) = backend %q", spec, backend)
		}
	})
}
