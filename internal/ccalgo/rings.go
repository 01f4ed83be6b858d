// Package ccalgo implements the deterministic symmetry-breaking subroutines
// of Theorem 1.4: Cole-Vishkin 3-coloring of rings in O(log* n) rounds
// [CV86, GPS87] and the maximal matching derived from it. The rings are
// "virtual": their slots live on clique nodes and consecutive slots may be
// owned by arbitrary node pairs, so every neighbor exchange is delivered
// with the (batched) Lenzen routing primitive of internal/cc, which enforces
// the congested-clique bandwidth constraints and accounts rounds.
package ccalgo

import (
	"errors"
	"fmt"

	"lapcc/internal/cc"
	"lapcc/internal/rounds"
)

// Rings is a collection of disjoint directed rings whose slots are hosted on
// the nodes of an n-clique. Slot i is owned by clique node Owner[i]; its
// ring successor is slot Succ[i] and predecessor Pred[i]. Slots with
// Alive[i] == false are ignored. A slot with Succ[i] == i is a (terminal)
// self-ring and is skipped by the ring algorithms.
type Rings struct {
	CliqueN int
	Owner   []int
	Succ    []int
	Pred    []int
	Alive   []bool
	// Faults, if non-nil, routes every neighbor exchange through the
	// reliable retransmission layer under the given fault plan. Delivered
	// values — and therefore colors and matchings — are bit-identical to a
	// fault-free run; only the round cost grows.
	Faults *cc.FaultPlan
	// Transport, if non-nil, physically carries every exchange through the
	// given delivery backend (see cc.Transport); nil keeps the in-process
	// path. Results are bit-identical either way.
	Transport cc.Transport

	// Working memory, sized on first use and reused by every exchange of
	// this and later calls, so a Rings kept across calls (as the Euler
	// orientation keeps one per orientation) routes without garbage.
	pkts                 []cc.Packet
	words                []int64
	routed               cc.RouteBuffer
	res                  [2]slotValues // the shift-down reads two exchanges at once
	colors, next         []int64       // Cole-Vishkin double buffer
	ones                 []int64       // proposal and acceptance payloads
	slots                []int
	matched              []bool
	proposers, accepters []int
}

// slotValues is one exchange's per-slot result: slot i received val[i] when
// stamp[i] equals epoch. Bumping the epoch per exchange replaces clearing.
type slotValues struct {
	val   []int64
	stamp []int
	epoch int
}

// reset empties v for s slots.
func (v *slotValues) reset(s int) {
	if cap(v.stamp) < s {
		v.val, v.stamp, v.epoch = make([]int64, s), make([]int, s), 0
	}
	v.val, v.stamp = v.val[:s], v.stamp[:s]
	v.epoch++
}

// get returns what slot i received and whether it received anything.
func (v *slotValues) get(i int) (int64, bool) {
	if v.stamp[i] != v.epoch {
		return 0, false
	}
	return v.val[i], true
}

// grow returns buf resized to length n, reallocating only when its capacity
// is short; the contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// ErrInconsistentRings reports a rings structure whose Succ/Pred pointers do
// not invert each other.
var ErrInconsistentRings = errors.New("ccalgo: Succ and Pred are not inverse")

// Validate checks structural invariants: array lengths match, owners are in
// range, and Pred inverts Succ on alive slots.
func (r *Rings) Validate() error {
	s := len(r.Owner)
	if len(r.Succ) != s || len(r.Pred) != s || len(r.Alive) != s {
		return fmt.Errorf("ccalgo: slot array lengths differ: owner=%d succ=%d pred=%d alive=%d",
			len(r.Owner), len(r.Succ), len(r.Pred), len(r.Alive))
	}
	for i := 0; i < s; i++ {
		if !r.Alive[i] {
			continue
		}
		if r.Owner[i] < 0 || r.Owner[i] >= r.CliqueN {
			return fmt.Errorf("ccalgo: slot %d owner %d out of range (n=%d)", i, r.Owner[i], r.CliqueN)
		}
		if r.Succ[i] < 0 || r.Succ[i] >= s || !r.Alive[r.Succ[i]] {
			return fmt.Errorf("ccalgo: slot %d has bad successor %d", i, r.Succ[i])
		}
		if r.Pred[r.Succ[i]] != i {
			return fmt.Errorf("%w: slot %d -> %d -> back %d", ErrInconsistentRings, i, r.Succ[i], r.Pred[r.Succ[i]])
		}
	}
	return nil
}

// ringSlots returns the alive slots that are on proper rings (length >= 2),
// in r's scratch.
func (r *Rings) ringSlots() []int {
	out := r.slots[:0]
	for i := range r.Owner {
		if r.Alive[i] && r.Succ[i] != i {
			out = append(out, i)
		}
	}
	r.slots = out
	return out
}

// exchange sends, for every slot in slots, the value vals[slot] to its ring
// successor (toSucc) or predecessor, and records into what each slot
// received. One invocation is one batched routing step. The packets and
// their payload words are r's scratch: on the in-process path a delivered
// payload aliases them, so every delivery is read into `into` before the
// next exchange rewrites them.
func (r *Rings) exchange(into *slotValues, slots []int, vals []int64, toSucc bool, led *rounds.Ledger, tag string) error {
	pkts := grow(r.pkts, len(slots))
	words := grow(r.words, 2*len(slots)) // every packet's [target, value]
	r.pkts, r.words = pkts, words
	for i, s := range slots {
		t := r.Pred[s]
		if toSucc {
			t = r.Succ[s]
		}
		data := words[2*i : 2*i+2 : 2*i+2]
		data[0], data[1] = int64(t), vals[s]
		pkts[i] = cc.Packet{Src: r.Owner[s], Dst: r.Owner[t], Data: data}
	}
	var delivered [][]cc.Packet
	var err error
	if r.Faults != nil {
		delivered, _, err = cc.ReliableRouteBatchedVia(r.Transport, r.CliqueN, pkts, led, tag, r.Faults)
	} else {
		delivered, _, err = r.routed.RouteBatchedVia(r.Transport, r.CliqueN, pkts, led, tag)
	}
	if err != nil {
		return fmt.Errorf("ccalgo: %s exchange: %w", tag, err)
	}
	into.reset(len(r.Owner))
	for _, inbox := range delivered {
		for _, p := range inbox {
			i := p.Data[0]
			into.val[i], into.stamp[i] = p.Data[1], into.epoch
		}
	}
	return nil
}

// ThreeColor computes a proper 3-coloring (colors 0..2) of every ring using
// the deterministic Cole-Vishkin bit-reduction, in O(log* S) neighbor
// exchanges where S is the number of slots. Self-rings receive color 0.
func (r *Rings) ThreeColor(led *rounds.Ledger) ([]int, error) {
	colors, err := r.threeColor(led)
	if err != nil {
		return nil, err
	}
	return toIntColors(colors), nil
}

// threeColor is ThreeColor with the colors in r's scratch, valid until r's
// next call.
func (r *Rings) threeColor(led *rounds.Ledger) ([]int64, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	s := len(r.Owner)
	colors, next := grow(r.colors, s), grow(r.next, s)
	r.colors, r.next = colors, next // the loop below swaps the two freely
	for i := range colors {
		colors[i] = int64(i) // unique ids = proper coloring
	}
	slots := r.ringSlots()
	if len(slots) == 0 {
		return colors, nil
	}

	// Bit-reduction phase: O(log* S) iterations bring colors below 6.
	succColor, predColor := &r.res[0], &r.res[1]
	maxIter := rounds.LogStar(s) + 5
	for iter := 0; ; iter++ {
		maxColor := int64(0)
		for _, i := range slots {
			if colors[i] > maxColor {
				maxColor = colors[i]
			}
		}
		if maxColor < 6 {
			break
		}
		if iter >= maxIter {
			return nil, fmt.Errorf("ccalgo: Cole-Vishkin did not reduce below 6 colors in %d iterations", maxIter)
		}
		if err := r.exchange(succColor, slots, colors, false, led, "cv-color"); err != nil {
			return nil, err
		}
		// Slot i now knows its successor's color (its successor sent to
		// pred = i). New color: 2k + bit_k, k = lowest differing bit.
		copy(next, colors)
		for _, i := range slots {
			sc, ok := succColor.get(i)
			if !ok {
				return nil, fmt.Errorf("ccalgo: slot %d missed successor color", i)
			}
			diff := colors[i] ^ sc
			if diff == 0 {
				return nil, fmt.Errorf("ccalgo: coloring not proper at slot %d (color %d)", i, colors[i])
			}
			k := int64(0)
			for diff&1 == 0 {
				diff >>= 1
				k++
			}
			next[i] = 2*k + (colors[i]>>uint(k))&1
		}
		colors, next = next, colors
	}

	// Shift-down phase: eliminate colors 3, 4, 5 one at a time. Each round,
	// slots of the doomed color learn both neighbors' colors and take the
	// smallest free color in {0,1,2}; same-color slots are never adjacent,
	// so simultaneous recoloring stays proper.
	for doomed := int64(3); doomed <= 5; doomed++ {
		if err := r.exchange(succColor, slots, colors, false, led, "cv-shiftdown"); err != nil {
			return nil, err
		}
		if err := r.exchange(predColor, slots, colors, true, led, "cv-shiftdown"); err != nil {
			return nil, err
		}
		for _, i := range slots {
			if colors[i] != doomed {
				continue
			}
			used := [3]bool{}
			if c, ok := succColor.get(i); ok && c < 3 {
				used[c] = true
			}
			if c, ok := predColor.get(i); ok && c < 3 {
				used[c] = true
			}
			for c := int64(0); c < 3; c++ {
				if !used[c] {
					colors[i] = c
					break
				}
			}
		}
	}
	for _, i := range slots {
		if colors[i] > 2 {
			return nil, fmt.Errorf("ccalgo: slot %d kept color %d after shift-down", i, colors[i])
		}
	}
	return colors, nil
}

func toIntColors(colors []int64) []int {
	out := make([]int, len(colors))
	for i, c := range colors {
		out[i] = int(c)
	}
	return out
}

// MaximalMatching computes a maximal matching on the ring edges
// (slot, Succ[slot]) from a 3-coloring, in O(1) neighbor exchanges. The
// result maps each slot to true when it is matched *with its successor*.
// Every slot is in at most one matched pair, and maximality holds: no two
// adjacent slots are both unmatched.
func (r *Rings) MaximalMatching(led *rounds.Ledger) ([]bool, error) {
	colors, err := r.threeColor(led)
	if err != nil {
		return nil, err
	}
	s := len(r.Owner)
	matchSucc := make([]bool, s)
	matched := grow(r.matched, s)
	clear(matched)
	r.matched = matched
	ones := grow(r.ones, s)
	for i := range ones {
		ones[i] = 1 // 1 = proposing / accepting
	}
	r.ones = ones
	slots := r.slots // threeColor's ring slots
	received, acks := &r.res[0], &r.res[1]

	for phase := int64(0); phase < 3; phase++ {
		// Proposal: unmatched slots of this phase's color offer to their
		// successor. Neighbors have different colors, so no slot both
		// proposes and is proposed to by a same-phase proposer chain; each
		// slot receives at most one proposal (unique pred).
		proposers := r.proposers[:0]
		for _, i := range slots {
			if colors[i] == phase && !matched[i] {
				proposers = append(proposers, i)
			}
		}
		r.proposers = proposers
		if len(proposers) == 0 {
			continue
		}
		if err := r.exchange(received, proposers, ones, true, led, "match-propose"); err != nil {
			return nil, err
		}
		// Acceptance: an unmatched slot accepts the (unique) proposal.
		// Iterate in slot order so packet batching — and hence the round
		// count — is deterministic run to run.
		accepters := r.accepters[:0]
		for _, i := range slots {
			if v, ok := received.get(i); ok && v == 1 && !matched[i] {
				accepters = append(accepters, i)
				matched[i] = true
			}
		}
		r.accepters = accepters
		if len(accepters) == 0 {
			continue
		}
		if err := r.exchange(acks, accepters, ones, false, led, "match-accept"); err != nil {
			return nil, err
		}
		for i := 0; i < s; i++ {
			if v, ok := acks.get(i); ok && v == 1 {
				matched[i] = true
				matchSucc[i] = true
			}
		}
	}
	return matchSucc, nil
}
