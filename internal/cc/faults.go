package cc

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// FaultPlan describes a deterministic fault schedule for the reliable
// routing layer (a Net's Faults): a seed-driven program deciding,
// per packet and per transmission wave, whether the packet is dropped,
// corrupted, duplicated, or delayed. Every decision is a pure function of
// (Seed, packet, wave), so a plan replays identically across runs, worker
// counts, and delivery backends — no math/rand global state is consulted
// anywhere. The layer restores delivery on top of a lossy plan via
// acknowledgements and bounded retransmission.
type FaultPlan struct {
	// Seed drives every fault decision. Two plans with equal rates and
	// seeds inject exactly the same faults.
	Seed uint64
	// Drop, Corrupt, Duplicate, Delay are per-message fault probabilities
	// in [0, 1]. At most one fault applies to a message; when the rates sum
	// to more than 1 the plan is invalid. Precedence of the single uniform
	// draw: drop, then corrupt, then duplicate, then delay.
	Drop      float64
	Corrupt   float64
	Duplicate float64
	Delay     float64
	// MaxDelay bounds the extra rounds a delayed message waits before
	// delivery (default 2). The actual delay of a delayed message is a
	// deterministic value in 1..MaxDelay.
	MaxDelay int
	// MaxRetries bounds the retransmission waves of the reliable routing
	// layer after the initial attempt (default 8, at most 32).
	// Net.Route returns ErrDeliveryFailed when packets remain undelivered
	// after this many retries.
	MaxRetries int
}

// maxRetriesLimit is the largest MaxRetries a valid plan may set. Wave w
// waits 2^(w-1) backoff rounds, so the limit keeps the backoff charge far
// from overflowing int64 and the wave count small.
const maxRetriesLimit = 32

// FaultStats counts the faults a plan injected into one reliable-delivery
// call (ReliableResult.Faults).
type FaultStats struct {
	// Dropped counts messages destroyed in flight.
	Dropped int64
	// Corrupted counts messages whose payload was bit-flipped.
	Corrupted int64
	// Duplicated counts messages delivered twice.
	Duplicated int64
	// Delayed counts messages held back at least one extra round.
	Delayed int64
}

func (s *FaultStats) add(o FaultStats) {
	s.Dropped += o.Dropped
	s.Corrupted += o.Corrupted
	s.Duplicated += o.Duplicated
	s.Delayed += o.Delayed
}

// Total returns the total number of injected faults.
func (s FaultStats) Total() int64 {
	return s.Dropped + s.Corrupted + s.Duplicated + s.Delayed
}

// ErrBadFaultPlan reports an invalid fault plan (rates outside [0,1] or
// summing past 1, or a negative or too large bound).
var ErrBadFaultPlan = errors.New("cc: invalid fault plan")

// ErrDeliveryFailed reports that the reliable routing layer exhausted its
// retransmission budget with packets still undelivered.
var ErrDeliveryFailed = errors.New("cc: reliable delivery exhausted retries")

// Validate checks the plan's rates and bounds.
func (p *FaultPlan) Validate() error {
	if p == nil {
		return nil
	}
	for _, r := range [...]float64{p.Drop, p.Corrupt, p.Duplicate, p.Delay} {
		if r < 0 || r > 1 || r != r {
			return fmt.Errorf("%w: rate %v outside [0,1]", ErrBadFaultPlan, r)
		}
	}
	if sum := p.Drop + p.Corrupt + p.Duplicate + p.Delay; sum > 1 {
		return fmt.Errorf("%w: rates sum to %v > 1", ErrBadFaultPlan, sum)
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("%w: MaxDelay %d", ErrBadFaultPlan, p.MaxDelay)
	}
	if p.MaxRetries < 0 || p.MaxRetries > maxRetriesLimit {
		return fmt.Errorf("%w: MaxRetries %d outside [0,%d]", ErrBadFaultPlan, p.MaxRetries, maxRetriesLimit)
	}
	return nil
}

// messageFates reports whether the plan can fault messages at all; a
// zero-rate plan leaves the message path clean.
func (p *FaultPlan) messageFates() bool {
	return p != nil && p.Drop+p.Corrupt+p.Duplicate+p.Delay > 0
}

func (p *FaultPlan) maxDelay() int {
	if p.MaxDelay > 0 {
		return p.MaxDelay
	}
	return 2
}

func (p *FaultPlan) maxRetries() int {
	if p.MaxRetries > 0 {
		return p.MaxRetries
	}
	return 8
}

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// avalanche mix used as the plan's stateless hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash folds the plan seed with up to four coordinates into one 64-bit value.
func (p *FaultPlan) hash(a, b, c, d uint64) uint64 {
	h := splitmix64(p.Seed ^ 0x6c62272e07bb0142)
	h = splitmix64(h ^ a)
	h = splitmix64(h ^ b)
	h = splitmix64(h ^ c)
	h = splitmix64(h ^ d)
	return h
}

// u01 maps a hash to a uniform draw in [0, 1).
func u01(h uint64) float64 {
	return float64(h>>11) / float64(uint64(1)<<53)
}

// Fault fates. At most one fate applies per message.
const (
	faultNone = iota
	faultDrop
	faultCorrupt
	faultDuplicate
	faultDelay
)

// Domain salts keep the per-packet fate, delay and corruption draws
// independent streams of the same seed.
const (
	saltPacket   = 0x51c6e7b9
	saltDelayAmt = 0x2f0b4c85
	saltCorrupt  = 0xb7e15162
)

// fate resolves a single message's fate from one uniform draw.
func (p *FaultPlan) fate(salt, a, b, c uint64) (kind, delay int) {
	u := u01(p.hash(salt, a, b, c))
	switch {
	case u < p.Drop:
		return faultDrop, 0
	case u < p.Drop+p.Corrupt:
		return faultCorrupt, 0
	case u < p.Drop+p.Corrupt+p.Duplicate:
		return faultDuplicate, 0
	case u < p.Drop+p.Corrupt+p.Duplicate+p.Delay:
		d := 1 + int(p.hash(saltDelayAmt, a, b, c)%uint64(p.maxDelay()))
		return faultDelay, d
	}
	return faultNone, 0
}

// packetFate decides the fate of reliable-layer packet seq on retransmission
// wave w.
func (p *FaultPlan) packetFate(seq, wave int) (kind, delay int) {
	return p.fate(saltPacket, uint64(seq), uint64(wave), 0)
}

// ParseFaultPlan parses the -faults flag syntax: a comma-separated list of
// key=value pairs with keys seed, drop, corrupt, dup, delay, maxdelay and
// retries; any other key is an ErrBadFaultPlan. The shorthand of a bare
// number is a drop rate: "-faults 0.01" is "-faults drop=0.01". An empty
// string returns a nil plan.
func ParseFaultPlan(s string) (*FaultPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	p := &FaultPlan{}
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		p.Drop = v
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return p, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("%w: field %q is not key=value", ErrBadFaultPlan, field)
		}
		switch key {
		case "seed":
			u, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: seed %q", ErrBadFaultPlan, val)
			}
			p.Seed = u
		case "drop", "corrupt", "dup", "delay":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: %s %q", ErrBadFaultPlan, key, val)
			}
			switch key {
			case "drop":
				p.Drop = f
			case "corrupt":
				p.Corrupt = f
			case "dup":
				p.Duplicate = f
			case "delay":
				p.Delay = f
			}
		case "maxdelay", "retries":
			i, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("%w: %s %q", ErrBadFaultPlan, key, val)
			}
			if key == "maxdelay" {
				p.MaxDelay = i
			} else {
				p.MaxRetries = i
			}
		default:
			return nil, fmt.Errorf("%w: unknown key %q", ErrBadFaultPlan, key)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// String renders the plan in ParseFaultPlan syntax.
func (p *FaultPlan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	for _, kv := range [...]struct {
		k string
		v float64
	}{{"drop", p.Drop}, {"corrupt", p.Corrupt}, {"dup", p.Duplicate}, {"delay", p.Delay}} {
		if kv.v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", kv.k, kv.v))
		}
	}
	if p.MaxDelay > 0 {
		parts = append(parts, fmt.Sprintf("maxdelay=%d", p.MaxDelay))
	}
	if p.MaxRetries > 0 {
		parts = append(parts, fmt.Sprintf("retries=%d", p.MaxRetries))
	}
	return strings.Join(parts, ",")
}
