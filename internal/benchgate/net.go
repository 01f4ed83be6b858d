package benchgate

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"lapcc/internal/cc"
	"lapcc/internal/transport"
	"lapcc/internal/transport/tcp"
)

// NetTolerance gates the net suite. The gated figure is ns per RouteVia
// call through each delivery backend. The local figure is plain Route; the
// mem figure adds an encode/decode of every packet; the tcp figure stacks
// loopback sockets, the chunked barrier, and kernel scheduling on top, so
// its wall time swings far more between runs than any microbenchmark —
// hence a ratio even wider than the serve suite's. Bytes and allocations
// per call barely move: over ten runs at GOMAXPROCS=2 they stayed within
// 0.3%, and at GOMAXPROCS 1 to 8 within 4% (tcp bytes) and 0.4%, so they
// gate at 1.25x and 1.10x. The suite's real teeth are not the timings at
// all: the measurement cross-checks that all three backends produced
// bit-identical transcripts and fails hard on any divergence.
var NetTolerance = Tolerance{Ns: 5.0, Bytes: 1.25, Allocs: 1.10}

// The net workload: a fixed schedule of netCalls routing calls on netN
// nodes, each node sending netFan packets per call to rotating recipients.
// Each call is one transport barrier. Sized so a TCP barrier moves several
// frames per worker pair without making the gate slow.
const (
	netN     = 48
	netFan   = 4
	netCalls = 32
	netProcs = 4
	// netRuns is the number of timed runs per backend; the suite records
	// their median.
	netRuns = 5
)

// runNet sends the schedule through t (nil routes in-process) and returns
// the run's transcript checksum, order-sensitive over every packet each
// node receives. Call r's packet from node v with fan index k carries
// (v, r<<8|k) to node (v+1+(k*7+r)%(netN-1))%netN.
func runNet(t cc.Transport) (uint64, error) {
	pkts := make([]cc.Packet, netN*netFan)
	words := make([]int64, 2*len(pkts))
	var h uint64
	for r := 0; r < netCalls; r++ {
		for v := 0; v < netN; v++ {
			for k := 1; k <= netFan; k++ {
				i := v*netFan + k - 1
				w := words[2*i : 2*i+2 : 2*i+2]
				w[0], w[1] = int64(v), int64(r<<8|k)
				pkts[i] = cc.Packet{Src: v, Dst: (v + 1 + (k*7+r)%(netN-1)) % netN, Data: w}
			}
		}
		out, _, err := cc.RouteVia(t, netN, pkts, nil, "net")
		if err != nil {
			return 0, err
		}
		for d, inbox := range out {
			for _, p := range inbox {
				for _, x := range p.Data {
					h = h*0x100000001b3 ^ uint64(x) ^ uint64(p.Src)<<32 ^ uint64(d)<<48
				}
			}
		}
	}
	return h, nil
}

// measureNet runs the workload through one transport (nil = in-process
// Route): one warm-up run, then netRuns timed runs. It returns the medians
// of ns, bytes and allocations per call, the latter two read from
// runtime.MemStats, plus the transcript checksum, which must agree across
// all runs.
func measureNet(t cc.Transport) (Metrics, uint64, error) {
	sum, err := runNet(t)
	if err != nil {
		return Metrics{}, 0, err
	}
	var ns, bytes, allocs [netRuns]float64
	for i := range ns {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		got, err := runNet(t)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return Metrics{}, 0, err
		}
		if got != sum {
			return Metrics{}, 0, fmt.Errorf("benchgate: net transcript changed between runs: %x then %x", sum, got)
		}
		ns[i] = float64(elapsed.Nanoseconds()) / netCalls
		bytes[i] = float64(after.TotalAlloc-before.TotalAlloc) / netCalls
		allocs[i] = float64(after.Mallocs-before.Mallocs) / netCalls
	}
	return Metrics{NsPerOp: median(ns[:]), BytesPerOp: median(bytes[:]), AllocsPerOp: median(allocs[:])}, sum, nil
}

// median returns the middle value of an odd-length sample.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

// MeasureNetWorkload re-measures BENCH_net.json in-process: the same
// routing schedule through in-process Route, the Mem wire-codec transport,
// and a netProcs-worker TCP loopback clique (in-process worker mode — real
// sockets and frames, no subprocess spawn cost polluting the figure). The
// three transcripts must be bit-identical or the measurement itself fails.
func MeasureNetWorkload() (map[string]Metrics, error) {
	local, localSum, err := measureNet(nil)
	if err != nil {
		return nil, fmt.Errorf("benchgate: net/local: %w", err)
	}

	mem, memSum, err := measureNet(transport.NewMem())
	if err != nil {
		return nil, fmt.Errorf("benchgate: net/mem: %w", err)
	}

	tt, err := tcp.New(tcp.Options{Procs: netProcs})
	if err != nil {
		return nil, fmt.Errorf("benchgate: net/tcp: %w", err)
	}
	tcpM, tcpSum, err := measureNet(tt)
	cerr := tt.Close()
	if err != nil {
		return nil, fmt.Errorf("benchgate: net/tcp: %w", err)
	}
	if cerr != nil {
		return nil, fmt.Errorf("benchgate: net/tcp close: %w", cerr)
	}

	if memSum != localSum || tcpSum != localSum {
		return nil, fmt.Errorf("benchgate: transcript checksums diverge: local=%x mem=%x tcp=%x",
			localSum, memSum, tcpSum)
	}
	return map[string]Metrics{
		"Net/local": local,
		"Net/mem":   mem,
		"Net/tcp":   tcpM,
	}, nil
}
