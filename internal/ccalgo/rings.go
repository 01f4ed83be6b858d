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

// ringSlots returns the alive slots that are on proper rings (length >= 2).
func (r *Rings) ringSlots() []int {
	var out []int
	for i := range r.Owner {
		if r.Alive[i] && r.Succ[i] != i {
			out = append(out, i)
		}
	}
	return out
}

// exchange sends, for every slot in slots, the value vals[slot] to the slot
// named by target(slot), and returns, indexed by slot, the value each slot
// received and whether it received one. One invocation is one batched
// routing step.
func (r *Rings) exchange(slots []int, vals []int64, target func(int) int, led *rounds.Ledger, tag string) (got []int64, ok []bool, err error) {
	pkts := make([]cc.Packet, len(slots))
	words := make([]int64, 2*len(slots)) // every packet's [target, value]
	for i, s := range slots {
		t := target(s)
		data := words[2*i : 2*i+2 : 2*i+2]
		data[0], data[1] = int64(t), vals[s]
		pkts[i] = cc.Packet{Src: r.Owner[s], Dst: r.Owner[t], Data: data}
	}
	var delivered [][]cc.Packet
	if r.Faults != nil {
		delivered, _, err = cc.ReliableRouteBatchedVia(r.Transport, r.CliqueN, pkts, led, tag, r.Faults)
	} else {
		delivered, _, err = cc.RouteBatchedVia(r.Transport, r.CliqueN, pkts, led, tag)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("ccalgo: %s exchange: %w", tag, err)
	}
	got = make([]int64, len(r.Owner))
	ok = make([]bool, len(r.Owner))
	for _, inbox := range delivered {
		for _, p := range inbox {
			got[p.Data[0]], ok[p.Data[0]] = p.Data[1], true
		}
	}
	return got, ok, nil
}

// ThreeColor computes a proper 3-coloring (colors 0..2) of every ring using
// the deterministic Cole-Vishkin bit-reduction, in O(log* S) neighbor
// exchanges where S is the number of slots. Self-rings receive color 0.
func (r *Rings) ThreeColor(led *rounds.Ledger) ([]int, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	s := len(r.Owner)
	colors := make([]int64, s)
	for i := range colors {
		colors[i] = int64(i) // unique ids = proper coloring
	}
	slots := r.ringSlots()
	if len(slots) == 0 {
		return toIntColors(colors), nil
	}

	// Bit-reduction phase: O(log* S) iterations bring colors below 6.
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
		succColor, fromSucc, err := r.exchange(slots, colors, func(i int) int { return r.Pred[i] }, led, "cv-color")
		if err != nil {
			return nil, err
		}
		// Slot i now knows its successor's color (its successor sent to
		// pred = i). New color: 2k + bit_k, k = lowest differing bit.
		next := make([]int64, s)
		copy(next, colors)
		for _, i := range slots {
			if !fromSucc[i] {
				return nil, fmt.Errorf("ccalgo: slot %d missed successor color", i)
			}
			diff := colors[i] ^ succColor[i]
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
		colors = next
	}

	// Shift-down phase: eliminate colors 3, 4, 5 one at a time. Each round,
	// slots of the doomed color learn both neighbors' colors and take the
	// smallest free color in {0,1,2}; same-color slots are never adjacent,
	// so simultaneous recoloring stays proper.
	for doomed := int64(3); doomed <= 5; doomed++ {
		succColor, fromSucc, err := r.exchange(slots, colors, func(i int) int { return r.Pred[i] }, led, "cv-shiftdown")
		if err != nil {
			return nil, err
		}
		predColor, fromPred, err := r.exchange(slots, colors, func(i int) int { return r.Succ[i] }, led, "cv-shiftdown")
		if err != nil {
			return nil, err
		}
		for _, i := range slots {
			if colors[i] != doomed {
				continue
			}
			used := [3]bool{}
			if c := succColor[i]; fromSucc[i] && c < 3 {
				used[c] = true
			}
			if c := predColor[i]; fromPred[i] && c < 3 {
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
	return toIntColors(colors), nil
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
	colors, err := r.ThreeColor(led)
	if err != nil {
		return nil, err
	}
	s := len(r.Owner)
	matchSucc := make([]bool, s)
	matched := make([]bool, s)
	slots := r.ringSlots()

	for phase := 0; phase < 3; phase++ {
		// Proposal: unmatched slots of this phase's color offer to their
		// successor (1 = proposing). Neighbors have different colors, so no
		// slot both proposes and is proposed to by a same-phase proposer
		// chain; each slot receives at most one proposal (unique pred).
		proposal := make([]int64, s)
		var proposers []int
		for _, i := range slots {
			if colors[i] == phase && !matched[i] {
				proposal[i] = 1
				proposers = append(proposers, i)
			}
		}
		if len(proposers) == 0 {
			continue
		}
		received, _, err := r.exchange(proposers, proposal, func(i int) int { return r.Succ[i] }, led, "match-propose")
		if err != nil {
			return nil, err
		}
		// Acceptance: an unmatched slot accepts the (unique) proposal.
		// Iterate in slot order so packet batching — and hence the round
		// count — is deterministic run to run.
		accept := make([]int64, s)
		var accepters []int
		for _, i := range slots {
			if received[i] == 1 && !matched[i] {
				accept[i] = 1
				accepters = append(accepters, i)
				matched[i] = true
			}
		}
		if len(accepters) == 0 {
			continue
		}
		acks, _, err := r.exchange(accepters, accept, func(i int) int { return r.Pred[i] }, led, "match-accept")
		if err != nil {
			return nil, err
		}
		for i, v := range acks {
			if v == 1 {
				matched[i] = true
				matchSucc[i] = true
			}
		}
	}
	return matchSucc, nil
}
