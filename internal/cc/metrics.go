package cc

import (
	"sync/atomic"

	"lapcc/internal/metrics"
)

// Instruments are registered once per registry and cached by registry
// identity, so a routing call with metrics enabled pays a handful of atomic
// adds and with metrics disabled one nil check.

// globalMetrics is the process-wide registry the routing primitives and the
// reliable-delivery layer record into.
var globalMetrics atomic.Pointer[metrics.Registry]

// globalInstr caches the instruments resolved from globalMetrics so the
// reliable layer does not re-register on every call.
var globalInstr atomic.Pointer[ccInstruments]

// SetMetrics installs reg as the process-wide metrics registry for the cc
// package: the routing primitives and the reliable-delivery layer record
// into it. A nil reg disables recording. Safe for concurrent use with
// running calls; each call picks up the change when it starts.
func SetMetrics(reg *metrics.Registry) {
	globalMetrics.Store(reg)
	globalInstr.Store(nil)
}

// MetricsRegistry returns the registry installed by SetMetrics (nil when
// disabled).
func MetricsRegistry() *metrics.Registry { return globalMetrics.Load() }

// ccInstruments is every instrument the cc package records into, resolved
// once per registry.
type ccInstruments struct {
	reg *metrics.Registry

	// Injected-fault counters (mirror FaultStats).
	faultDropped    *metrics.Counter
	faultCorrupted  *metrics.Counter
	faultDuplicated *metrics.Counter
	faultDelayed    *metrics.Counter

	// Reliable-delivery protocol counters.
	relWaves         *metrics.Counter
	relRetransmitted *metrics.Counter
	relAckRounds     *metrics.Counter
	relBackoffRounds *metrics.Counter
	relFailures      *metrics.Counter

	// Routing-primitive accounting (Net.Route/RouteSteps/Broadcast — the
	// model-level primitives the solver stack executes its measured rounds
	// through).
	routeRounds   *metrics.Counter
	routeMessages *metrics.Counter
	routeWords    *metrics.Counter
	routeCallMsgs *metrics.Histogram
	broadcasts    *metrics.Counter
}

func resolveInstruments(reg *metrics.Registry) *ccInstruments {
	faultHelp := "Faults injected by the reliable layer's fault plan, by type."
	return &ccInstruments{
		reg: reg,

		faultDropped:    reg.Counter("lapcc_engine_faults_total", faultHelp, "type", "dropped"),
		faultCorrupted:  reg.Counter("lapcc_engine_faults_total", faultHelp, "type", "corrupted"),
		faultDuplicated: reg.Counter("lapcc_engine_faults_total", faultHelp, "type", "duplicated"),
		faultDelayed:    reg.Counter("lapcc_engine_faults_total", faultHelp, "type", "delayed"),

		relWaves:         reg.Counter("lapcc_reliable_waves_total", "Transmission waves (first sends plus retransmit waves) of the reliable-delivery layer."),
		relRetransmitted: reg.Counter("lapcc_reliable_retransmitted_packets_total", "Packets retransmitted after a missing acknowledgement."),
		relAckRounds:     reg.Counter("lapcc_reliable_ack_rounds_total", "Acknowledgement rounds spent by the reliable-delivery layer."),
		relBackoffRounds: reg.Counter("lapcc_reliable_backoff_rounds_total", "Backoff rounds waited out by the reliable-delivery layer."),
		relFailures:      reg.Counter("lapcc_reliable_delivery_failures_total", "Reliable deliveries abandoned after exhausting retries."),

		routeRounds:   reg.Counter("lapcc_route_rounds_total", "Measured clique rounds executed by the Lenzen routing primitives."),
		routeMessages: reg.Counter("lapcc_route_messages_total", "Link messages sent by the routing primitives."),
		routeWords:    reg.Counter("lapcc_route_words_total", "Payload words sent by the routing primitives."),
		routeCallMsgs: reg.Histogram("lapcc_route_call_messages", "Link messages per routing-primitive call."),
		broadcasts:    reg.Counter("lapcc_route_broadcasts_total", "All-to-all broadcast rounds executed."),
	}
}

// instrumentsFor returns the cached instruments for the global registry,
// resolving them on first use after SetMetrics. Returns nil when metrics
// are disabled.
func instrumentsFor(reg *metrics.Registry) *ccInstruments {
	if reg == nil {
		return nil
	}
	if in := globalInstr.Load(); in != nil && in.reg == reg {
		return in
	}
	in := resolveInstruments(reg)
	globalInstr.Store(in)
	return in
}

// recordFaults mirrors one call's FaultStats into the fault counters.
func (mi *ccInstruments) recordFaults(f FaultStats) {
	mi.faultDropped.Add(f.Dropped)
	mi.faultCorrupted.Add(f.Corrupted)
	mi.faultDuplicated.Add(f.Duplicated)
	mi.faultDelayed.Add(f.Delayed)
}

// recordRoute mirrors one Route call into the routing-primitive counters.
// A nil receiver (metrics disabled) records nothing.
func (mi *ccInstruments) recordRoute(res RouteResult, words int64) {
	if mi == nil {
		return
	}
	mi.routeRounds.Add(res.Executed)
	mi.routeMessages.Add(res.LinkMessages)
	mi.routeWords.Add(words)
	mi.routeCallMsgs.Observe(res.LinkMessages)
}

// recordReliable mirrors one public reliable-delivery call's aggregate
// result into the protocol counters. Called with the global registry's
// instruments; a nil receiver (metrics disabled) records nothing.
func (mi *ccInstruments) recordReliable(agg ReliableResult, failed bool) {
	if mi == nil {
		return
	}
	mi.relWaves.Add(int64(agg.Attempts))
	mi.relRetransmitted.Add(agg.Retransmitted)
	mi.relAckRounds.Add(agg.AckRounds)
	mi.relBackoffRounds.Add(agg.BackoffRounds)
	if failed {
		mi.relFailures.Inc()
	}
	mi.recordFaults(agg.Faults)
}
