// Package metrics is the live-observability counterpart of internal/trace:
// a dependency-free registry of counters, gauges, and log-bucketed
// histograms that the whole solver stack reports into while a run is in
// flight. Where a trace answers "where did the rounds go" after the fact,
// the registry answers "what is the solver doing right now" — it is what
// the CLIs' -debug-addr HTTP server scrapes.
//
// Design rules, in priority order:
//
//   - Zero-allocation hot path. Recording into an instrument is one or two
//     atomic adds; instruments are resolved (name -> pointer) once, outside
//     the hot loop. The disabled path is untouched (a nil registry resolves
//     to nil instruments, and every method is a no-op on a nil receiver).
//   - Deterministic exposition. Snapshot, WritePrometheus, and WriteJSON
//     emit metrics sorted by name and label set, so two snapshots of equal
//     state are byte-identical — the same discipline as the JSONL trace
//     export.
//   - No dependencies. The Prometheus text format is simple enough to emit
//     by hand; pulling a client library would violate the repo's
//     stdlib-only constraint.
//
// Histograms use power-of-two buckets: bucket i counts observations v with
// bits.Len64(v) == i, i.e. bucket 0 holds v == 0 and bucket i >= 1 holds
// 2^(i-1) <= v < 2^i. The upper bound of bucket i is therefore 2^i - 1,
// which is what the Prometheus `le` label reports. One fixed 64-entry
// array covers every non-negative int64, so Observe never branches on
// range and never allocates.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the instrument type of a registered metric.
type Kind uint8

// Instrument kinds.
const (
	// KindCounter is a monotonically non-decreasing count.
	KindCounter Kind = iota + 1
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a power-of-two-bucketed distribution.
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Label is one name="value" pair attached to a metric.
type Label struct {
	Key   string
	Value string
}

// histBuckets is the number of finite histogram buckets: bucket i counts
// observations of bit length i, and 64 buckets cover every non-negative
// int64 (bits.Len64 of a positive int64 is at most 63).
const histBuckets = 64

// Counter is a monotonically non-decreasing counter. The zero value is
// ready to use; all methods are safe on a nil receiver (no-ops), so a
// disabled registry costs one nil check per record.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Negative n is ignored: counters are monotone by contract,
// and silently winding one backwards would corrupt rate computations on
// the scrape side.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value. The zero value is ready to use; all
// methods are no-ops on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket power-of-two histogram of non-negative
// int64 observations (negative observations clamp to 0). The zero value is
// ready to use; all methods are no-ops on a nil receiver. Observe is one
// bits.Len64 plus three atomic adds — no branches on bucket boundaries, no
// allocation.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))&(histBuckets-1)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// metric is one registered instrument plus its identity.
type metric struct {
	name   string
	help   string
	labels []Label
	id     string // name + canonical label rendering, the dedup key
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named instruments. A nil *Registry is a valid, disabled
// registry: every lookup returns a nil instrument whose methods are no-ops,
// so callers thread registries unconditionally instead of guarding every
// record site. Lookups (Counter, Gauge, Histogram) are get-or-create and
// take a mutex; record operations on the returned instruments are
// lock-free. Resolve instruments once per hot loop, not once per record.
type Registry struct {
	mu   sync.Mutex
	byID map[string]*metric
	sink any // lazily built rounds.Sink adapter; see ledger.go
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*metric)}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// metricID renders the canonical identity of a metric: the name plus the
// label pairs in the given order. Label order is part of the identity on
// purpose — callers register a metric with one spelling, and the
// exposition sorts whole metrics, not label keys inside one metric.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// pairLabels converts alternating key, value strings into Labels; an odd
// trailing key gets an empty value rather than being dropped, so a caller
// bug is visible in the exposition instead of silent.
func pairLabels(kv []string) []Label {
	if len(kv) == 0 {
		return nil
	}
	out := make([]Label, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		l := Label{Key: kv[i]}
		if i+1 < len(kv) {
			l.Value = kv[i+1]
		}
		out = append(out, l)
	}
	return out
}

// lookup returns the metric registered under (name, labels), creating it
// with the given kind if absent. Re-registering an existing metric with a
// different kind is a programming error and panics: two instruments cannot
// share one exposition name.
func (r *Registry) lookup(kind Kind, name, help string, kv []string) *metric {
	labels := pairLabels(kv)
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byID[id]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as %v, requested as %v", id, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, help: help, labels: labels, id: id, kind: kind}
	switch kind {
	case KindCounter:
		m.counter = &Counter{}
	case KindGauge:
		m.gauge = &Gauge{}
	case KindHistogram:
		m.hist = &Histogram{}
	}
	r.byID[id] = m
	return m
}

// Counter returns the counter registered under name and the optional
// alternating key, value label pairs, creating it on first use. Returns
// nil (a no-op instrument) on a nil registry.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(KindCounter, name, help, labelPairs).counter
}

// Gauge is Counter for gauges.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(KindGauge, name, help, labelPairs).gauge
}

// Histogram is Counter for histograms.
func (r *Registry) Histogram(name, help string, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(KindHistogram, name, help, labelPairs).hist
}

// BucketCount is one cumulative histogram bucket of a Sample.
type BucketCount struct {
	// UpperBound is the bucket's inclusive upper bound (the `le` value).
	UpperBound int64
	// Count is the cumulative number of observations <= UpperBound.
	Count int64
}

// Sample is one metric in a deterministic snapshot.
type Sample struct {
	Name   string
	Help   string
	Labels []Label
	Kind   Kind
	// Value is the counter or gauge value (unused for histograms).
	Value int64
	// Count and Sum describe a histogram (unused otherwise).
	Count int64
	Sum   int64
	// Buckets are the cumulative finite buckets of a histogram, trimmed to
	// the highest occupied bucket; Count is the +Inf bucket.
	Buckets []BucketCount
}

// Snapshot returns every registered metric, sorted by name then label
// rendering, each read atomically per field. Two snapshots of identical
// state are deeply equal, which is what makes the expositions diffable.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.byID))
	for _, m := range r.byID {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].id < ms[j].id
	})
	out := make([]Sample, 0, len(ms))
	for _, m := range ms {
		s := Sample{Name: m.name, Help: m.help, Labels: m.labels, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			s.Value = m.counter.Value()
		case KindGauge:
			s.Value = m.gauge.Value()
		case KindHistogram:
			s.Count = m.hist.Count()
			s.Sum = m.hist.Sum()
			s.Buckets = cumulativeBuckets(m.hist)
		}
		out = append(out, s)
	}
	return out
}

// cumulativeBuckets renders a histogram's occupied finite buckets in
// cumulative (Prometheus le) form.
func cumulativeBuckets(h *Histogram) []BucketCount {
	top := -1
	var raw [histBuckets]int64
	for i := 0; i < histBuckets; i++ {
		raw[i] = h.buckets[i].Load()
		if raw[i] != 0 {
			top = i
		}
	}
	if top < 0 {
		return nil
	}
	out := make([]BucketCount, 0, top+1)
	var cum int64
	for i := 0; i <= top; i++ {
		cum += raw[i]
		out = append(out, BucketCount{UpperBound: bucketUpperBound(i), Count: cum})
	}
	return out
}

// bucketUpperBound returns the inclusive upper bound of bucket i: 0 for
// bucket 0 and 2^i - 1 for i >= 1 (bucket 63's bound saturates at
// MaxInt64).
func bucketUpperBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1) // MaxInt64
	}
	return int64(1)<<uint(i) - 1
}
