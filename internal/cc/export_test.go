package cc

// Test-only exports for the external tests (package cc_test), which import
// internal/transport and so cannot live in package cc.

// CountingTransport is the counting, payload-copying test transport.
type CountingTransport = countingTransport

// Calls returns the number of Deliver calls made so far.
func (c *countingTransport) Calls() int64 { return c.calls.Load() }
