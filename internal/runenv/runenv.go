// Package runenv holds the run value the solver packages share. Each result
// of the paper bounds the rounds of one run on one clique, and the
// pipelines nest: the flow IPMs call the Laplacian solver, which builds the
// sparsifier chain, and Cohen rounding orients one Eulerian subgraph per
// level. So a run's ledger, tracer, fault plan, transport, budget and
// metrics registry form one value, Env. Every solver's Options embeds it;
// each public entry point calls Bind once and hands the whole value down.
package runenv

import (
	"lapcc/internal/cc"
	"lapcc/internal/metrics"
	"lapcc/internal/rounds"
	"lapcc/internal/trace"
)

// Env is one run. Every field is optional: the zero value is a plain
// in-process run that records nothing.
type Env struct {
	// Ledger, if non-nil, receives the run's round costs.
	Ledger *rounds.Ledger
	// Trace, if non-nil, receives hierarchical span and cost events (see
	// internal/trace); a nil tracer records nothing and costs nothing.
	Trace *trace.Tracer
	// Faults, if non-nil, subjects every network primitive of the run to
	// the given deterministic fault plan, with delivery restored by the
	// reliable retransmission layer (see internal/cc). Answers are
	// bit-identical to a fault-free run; only the round cost grows.
	Faults *cc.FaultPlan
	// Transport, if non-nil, physically carries every network primitive of
	// the run through the given delivery backend (see cc.Transport); nil
	// keeps the in-process path. Answers are bit-identical either way.
	Transport cc.Transport
	// Budget, if non-nil, bounds the run's rounds and/or wall clock. It is
	// checked at phase boundaries (sparsifier levels, solve attempts, IPM
	// iterations, contraction and scaling levels); exhaustion aborts with
	// an error unwrapping to rounds.ErrBudgetExceeded.
	Budget *rounds.Budget
	// Metrics, if non-nil, receives live counters from every stage of the
	// run and a mirror of the ledger's cost stream; a nil registry records
	// nothing and costs nothing.
	Metrics *metrics.Registry
	// Workers is ignored: the numerical core runs on the calling goroutine.
	//
	// Deprecated: it has no effect and is kept only because the benchmark
	// module (bench/replay.go) still sets it.
	Workers int
}

// Bind wires the run to its ledger: the tracer and the metrics mirror
// observe every cost the ledger records, and the budget meters from the
// ledger's current totals unless the caller already bound it to span a
// longer pipeline. Each step is idempotent, so every entry point calls Bind
// on the run it is handed.
func (e Env) Bind() {
	e.Trace.Attach(e.Ledger)
	e.Metrics.MirrorLedger(e.Ledger)
	e.Budget.BindIfUnbound(e.Ledger)
}

// Net returns the run's network: its transport and fault plan, charging
// its ledger.
func (e Env) Net() cc.Net {
	return cc.Net{Transport: e.Transport, Faults: e.Faults, Ledger: e.Ledger}
}
