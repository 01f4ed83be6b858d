package linalg

import (
	"sync/atomic"

	"lapcc/internal/metrics"
)

// The linalg metrics binding mirrors the cc package's: one process-wide
// registry installed with SetMetrics, instruments resolved once per registry
// and cached behind an atomic pointer, and a disabled registry costing a
// single atomic load plus nil check per kernel call. Per-kernel counters say
// which kernels the solver stack is actually leaning on while a run is in
// flight.

// globalMetrics is the process-wide registry for linalg kernel accounting.
var globalMetrics atomic.Pointer[metrics.Registry]

// globalInstr caches the instruments resolved from globalMetrics.
var globalInstr atomic.Pointer[linalgInstruments]

// Kernel identifiers for the per-kernel call counters.
const (
	kernelApply = iota
	kernelDot
	kernelSum
	kernelAXPY
	kernelScale
	kernelRemoveMean
	numKernels
)

var kernelNames = [numKernels]string{
	kernelApply:      "apply",
	kernelDot:        "dot",
	kernelSum:        "sum",
	kernelAXPY:       "axpy",
	kernelScale:      "scale",
	kernelRemoveMean: "remove_mean",
}

// linalgInstruments is every instrument the package records into, resolved
// once per registry.
type linalgInstruments struct {
	reg     *metrics.Registry
	kernels [numKernels]*metrics.Counter
}

// SetMetrics installs reg as the process-wide metrics registry for the
// linalg kernels (Laplacian.Apply, Vec.Dot, Vec.Sum and the counted AXPY,
// Scale and RemoveMean). A nil reg
// disables recording. Safe for concurrent use; kernels pick up the change
// on their next call.
func SetMetrics(reg *metrics.Registry) {
	globalMetrics.Store(reg)
	globalInstr.Store(nil)
}

// MetricsRegistry returns the registry installed by SetMetrics (nil when
// disabled).
func MetricsRegistry() *metrics.Registry { return globalMetrics.Load() }

func resolveLinalgInstruments(reg *metrics.Registry) *linalgInstruments {
	in := &linalgInstruments{reg: reg}
	for k := 0; k < numKernels; k++ {
		in.kernels[k] = reg.Counter("lapcc_linalg_kernel_calls_total",
			"Numerical kernel invocations, by kernel.", "kernel", kernelNames[k])
	}
	return in
}

// instruments returns the cached instruments for the global registry,
// resolving them on first use after SetMetrics. Nil when disabled.
func instruments() *linalgInstruments {
	reg := globalMetrics.Load()
	if reg == nil {
		return nil
	}
	if in := globalInstr.Load(); in != nil && in.reg == reg {
		return in
	}
	in := resolveLinalgInstruments(reg)
	globalInstr.Store(in)
	return in
}

// kernelCalls counts one invocation of the given kernel. No-op when metrics
// are disabled.
func kernelCalls(kernel int) {
	if in := instruments(); in != nil {
		in.kernels[kernel].Inc()
	}
}
