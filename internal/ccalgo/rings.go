// Package ccalgo implements the deterministic symmetry-breaking subroutines
// of Theorem 1.4: Cole-Vishkin 3-coloring of rings in O(log* n) rounds
// [CV86, GPS87] and the maximal matching derived from it. The rings are
// "virtual": their slots live on clique nodes and consecutive slots may be
// owned by arbitrary node pairs, so every neighbor exchange is delivered by
// Lenzen routing over the Rings' cc.Net, which enforces the
// congested-clique bandwidth constraints and accounts rounds. Two exchanges
// that do not read each other's results travel in one routing call
// (cc.Net.RouteSteps): each is charged as its own call, and over a
// transport both share one delivery barrier.
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
	// Net carries every neighbor exchange and is charged its rounds. Colors
	// and matchings are bit-identical whatever its transport and fault
	// plan; only the round cost grows under faults.
	Net cc.Net

	// Working memory, sized on first use and reused by every exchange of
	// this and later calls, so a Rings kept across calls (as the Euler
	// orientation keeps one per orientation) routes without garbage. A
	// routing call carries up to two exchanges, each with its own packets,
	// payload words, routing output and per-slot result.
	pkts                 [2][]cc.Packet
	words                [2][]int64
	routed               [2]cc.RouteBuffer
	steps                [2]cc.Step
	res                  [2]slotValues
	colors, next         []int64 // Cole-Vishkin double buffer
	ones                 []int64 // proposal and acceptance payloads
	slots                []int
	matched              []bool
	proposers, accepters []int
}

// send is one neighbor exchange: every slot in slots sends vals[slot] to
// its ring successor (toSucc) or predecessor, and into records what each
// slot received.
type send struct {
	into   *slotValues
	slots  []int
	vals   []int64
	toSucc bool
	tag    string
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

// exchange performs up to two neighbor exchanges in one routing call.
// They must be independent — neither's values may come from the other's
// delivery — because over a transport they share delivery barriers
// (cc.Net.RouteSteps). Each is charged as its own routing step. An
// exchange with no slots is neither charged nor shipped, so it is not
// routed at all. The packets and their payload words are r's scratch: on
// the in-process path a delivered payload aliases them, so every delivery
// is read into its `into` before the next exchange rewrites them.
func (r *Rings) exchange(sends ...send) error {
	var into [2]*slotValues // into[j] receives steps[j]'s delivery
	steps := r.steps[:0]
	for k, sd := range sends {
		sd.into.reset(len(r.Owner))
		if len(sd.slots) == 0 {
			continue
		}
		pkts := grow(r.pkts[k], len(sd.slots))
		words := grow(r.words[k], 2*len(sd.slots)) // every packet's [target, value]
		r.pkts[k], r.words[k] = pkts, words
		for i, s := range sd.slots {
			t := r.Pred[s]
			if sd.toSucc {
				t = r.Succ[s]
			}
			data := words[2*i : 2*i+2 : 2*i+2]
			data[0], data[1] = int64(t), sd.vals[s]
			pkts[i] = cc.Packet{Src: r.Owner[s], Dst: r.Owner[t], Data: data}
		}
		into[len(steps)] = sd.into
		steps = append(steps, cc.Step{Packets: pkts, Tag: sd.tag, Buf: &r.routed[k]})
	}
	if len(steps) == 0 {
		return nil
	}
	if err := r.Net.RouteSteps(r.CliqueN, steps); err != nil {
		return fmt.Errorf("ccalgo: ring exchange: %w", err) // names the failing step
	}
	for j := range steps {
		v := into[j]
		for _, inbox := range steps[j].Out {
			for _, p := range inbox {
				i := p.Data[0]
				v.val[i], v.stamp[i] = p.Data[1], v.epoch
			}
		}
		steps[j].Out = nil
	}
	return nil
}

// ThreeColor computes a proper 3-coloring (colors 0..2) of every ring using
// the deterministic Cole-Vishkin bit-reduction, in O(log* S) neighbor
// exchanges where S is the number of slots. Self-rings receive color 0.
func (r *Rings) ThreeColor() ([]int, error) {
	colors, err := r.threeColor()
	if err != nil {
		return nil, err
	}
	return toIntColors(colors), nil
}

// threeColor is ThreeColor with the colors in r's scratch, valid until r's
// next call.
func (r *Rings) threeColor() ([]int64, error) {
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
		if err := r.exchange(send{succColor, slots, colors, false, "cv-color"}); err != nil {
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
	// slots of the doomed color learn both neighbors' colors — the two
	// exchanges of one routing call — and take the smallest free color in
	// {0,1,2}; same-color slots are never adjacent, so simultaneous
	// recoloring stays proper.
	for doomed := int64(3); doomed <= 5; doomed++ {
		if err := r.exchange(
			send{succColor, slots, colors, false, "cv-shiftdown"},
			send{predColor, slots, colors, true, "cv-shiftdown"}); err != nil {
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
func (r *Rings) MaximalMatching() ([]bool, error) {
	colors, err := r.threeColor()
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

	// Phase p's proposals travel with phase p-1's acceptances: the acks
	// reach only the color-(p-1) slots that proposed in phase p-1, and
	// phase p's proposers have color p, so the proposal set is known before
	// those acks land. The acks are applied before phase p's accepters are
	// picked. Phase 3 only carries phase 2's acceptances.
	accepters := r.accepters[:0]
	for phase := int64(0); phase <= 3; phase++ {
		// Proposal: unmatched slots of this phase's color offer to their
		// successor. Neighbors have different colors, so no slot both
		// proposes and is proposed to by a same-phase proposer chain; each
		// slot receives at most one proposal (unique pred).
		proposers := r.proposers[:0]
		if phase < 3 {
			for _, i := range slots {
				if colors[i] == phase && !matched[i] {
					proposers = append(proposers, i)
				}
			}
		}
		r.proposers = proposers
		if err := r.exchange(
			send{acks, accepters, ones, false, "match-accept"},
			send{received, proposers, ones, true, "match-propose"}); err != nil {
			return nil, err
		}
		// Each accepter acknowledged its predecessor, the proposer.
		for _, a := range accepters {
			if v, ok := acks.get(r.Pred[a]); ok && v == 1 {
				matched[r.Pred[a]] = true
				matchSucc[r.Pred[a]] = true
			}
		}
		// Acceptance: an unmatched slot accepts the (unique) proposal.
		// Iterate in slot order so packet batching — and hence the round
		// count — is deterministic run to run.
		accepters = accepters[:0]
		if len(proposers) > 0 {
			for _, i := range slots {
				if v, ok := received.get(i); ok && v == 1 && !matched[i] {
					accepters = append(accepters, i)
					matched[i] = true
				}
			}
		}
		r.accepters = accepters
	}
	return matchSucc, nil
}
