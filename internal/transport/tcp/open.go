package tcp

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"lapcc/internal/cc"
	"lapcc/internal/transport"
)

// Open resolves a -transport flag value into a delivery backend:
//
//	local                     in-process routing (returns nil: the default)
//	mem                       wire-codec round trip in process
//	tcp[,procs=N][,bin=PATH]  multi-process loopback clique; bin execs that
//	                          lapccnode binary per worker, otherwise workers
//	                          run as in-process goroutines over real sockets
//
// The tcp backend takes further options: supervise=1 enables crash
// recovery (worker respawn + barrier replay) and barrier=DUR bounds one
// delivery attempt.
//
// The returned Transport is nil for "local" (callers pass it straight to
// Options; the routing primitives treat nil as the in-process path).
// Callers own Close.
func Open(spec string) (cc.Transport, error) {
	return OpenWith(spec, nil)
}

// OpenWith is Open with a socket-level chaos plan attached to the tcp
// backend (a -chaos flag). A non-nil plan implies supervision: scheduled
// faults are only recoverable under it. Non-tcp backends reject a plan.
func OpenWith(spec string, chaos *transport.ChaosPlan) (cc.Transport, error) {
	parts := strings.Split(spec, ",")
	if parts[0] != "tcp" && chaos != nil {
		return nil, fmt.Errorf("transport: chaos plans need the tcp backend, not %q", parts[0])
	}
	switch parts[0] {
	case "", "local":
		if len(parts) > 1 {
			return nil, fmt.Errorf("transport: %q takes no options", parts[0])
		}
		return nil, nil
	case "mem":
		if len(parts) > 1 {
			return nil, fmt.Errorf("transport: mem takes no options")
		}
		return transport.NewMem(), nil
	case "tcp":
		opts := Options{Chaos: chaos, Supervise: chaos != nil}
		for _, kv := range parts[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("transport: malformed option %q (want key=value)", kv)
			}
			var err error
			switch k {
			case "procs":
				p, aerr := strconv.Atoi(v)
				if aerr != nil || p <= 0 {
					return nil, fmt.Errorf("transport: bad procs %q", v)
				}
				opts.Procs = p
			case "bin":
				opts.Binary = v
			case "supervise":
				var b bool
				b, err = strconv.ParseBool(v)
				opts.Supervise = opts.Supervise || b
			case "barrier":
				opts.BarrierTimeout, err = time.ParseDuration(v)
			default:
				return nil, fmt.Errorf("transport: unknown option %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("transport: bad %s value %q: %v", k, v, err)
			}
		}
		return New(opts)
	default:
		return nil, fmt.Errorf("transport: unknown backend %q (want local, mem, or tcp)", parts[0])
	}
}
