// Command lapccnode is one worker process of a multi-process congested
// clique. It is not run by hand: the TCP transport coordinator (a CLI run
// with -transport tcp, or the net-smoke harness) execs one
// lapccnode per worker, hands it the coordinator address, and the process
// serves delivery barriers until it is shut down. A supervising coordinator
// additionally passes its timeouts, the mesh epoch, and the chaos plan, so
// a respawned worker rejoins with exactly the settings of the mesh it
// replaces.
package main

import (
	"flag"
	"fmt"
	"os"

	"lapcc/internal/transport"
	"lapcc/internal/transport/tcp"
)

func main() {
	coord := flag.String("coord", "", "coordinator address (host:port)")
	id := flag.Int("id", -1, "worker id in [0, procs)")
	procs := flag.Int("procs", 0, "total worker count")
	dialTimeout := flag.Duration("dial-timeout", 0, "coordinator/mesh dial and accept timeout (0: default)")
	epoch := flag.Uint64("epoch", 0, "coordinator mesh incarnation")
	chaosSpec := flag.String("chaos", "", "socket-level chaos plan for mesh connections (see transport.ParseChaosPlan)")
	flag.Parse()

	if *coord == "" || *id < 0 || *procs <= 0 || *id >= *procs {
		fmt.Fprintln(os.Stderr, "lapccnode: -coord, -id, and -procs are required (0 <= id < procs)")
		os.Exit(2)
	}
	chaos, err := transport.ParseChaosPlan(*chaosSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lapccnode: %v\n", err)
		os.Exit(2)
	}
	cfg := tcp.NodeConfig{
		DialTimeout: *dialTimeout,
		Epoch:       *epoch,
		Chaos:       chaos,
	}
	if err := tcp.RunNodeWith(*coord, *id, *procs, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "lapccnode: %v\n", err)
		os.Exit(1)
	}
}
