package cc

import (
	"errors"
	"testing"
)

func TestFaultPlanDeterministicFates(t *testing.T) {
	p := &FaultPlan{Seed: 42, Drop: 0.2, Corrupt: 0.1, Duplicate: 0.1, Delay: 0.1}
	q := &FaultPlan{Seed: 42, Drop: 0.2, Corrupt: 0.1, Duplicate: 0.1, Delay: 0.1}
	counts := map[int]int{}
	for seq := 0; seq < 400; seq++ {
		for wave := 0; wave < 8; wave++ {
			k1, d1 := p.packetFate(seq, wave)
			k2, d2 := q.packetFate(seq, wave)
			if k1 != k2 || d1 != d2 {
				t.Fatalf("fate diverged at (%d,%d): (%d,%d) vs (%d,%d)", seq, wave, k1, d1, k2, d2)
			}
			counts[k1]++
		}
	}
	// With 3200 draws at these rates every fate must occur.
	for _, k := range []int{faultNone, faultDrop, faultCorrupt, faultDuplicate, faultDelay} {
		if counts[k] == 0 {
			t.Fatalf("fate %d never drawn: %v", k, counts)
		}
	}
	// A different seed must produce a different fate sequence.
	diff := &FaultPlan{Seed: 43, Drop: 0.2, Corrupt: 0.1, Duplicate: 0.1, Delay: 0.1}
	same := 0
	total := 0
	for seq := 0; seq < 160; seq++ {
		for wave := 0; wave < 8; wave++ {
			k1, _ := p.packetFate(seq, wave)
			k2, _ := diff.packetFate(seq, wave)
			total++
			if k1 == k2 {
				same++
			}
		}
	}
	if same == total {
		t.Fatal("seed change did not change any fate")
	}
}

func TestFaultPlanValidate(t *testing.T) {
	bad := []*FaultPlan{
		{Drop: -0.1},
		{Drop: 1.1},
		{Drop: 0.6, Delay: 0.6},
		{MaxDelay: -1},
		{MaxRetries: -2},
		{Drop: 1, MaxRetries: 70},
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrBadFaultPlan) {
			t.Errorf("plan %d: want ErrBadFaultPlan, got %v", i, err)
		}
	}
	ok := &FaultPlan{Drop: 0.5, Corrupt: 0.2, Duplicate: 0.2, Delay: 0.1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("seed=9,drop=0.01,corrupt=0.002,dup=0.003,delay=0.004,maxdelay=5,retries=4")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := FaultPlan{Seed: 9, Drop: 0.01, Corrupt: 0.002, Duplicate: 0.003, Delay: 0.004,
		MaxDelay: 5, MaxRetries: 4}
	if *p != want {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	// Round trip through String.
	q, err := ParseFaultPlan(p.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", p.String(), err)
	}
	if q.String() != p.String() {
		t.Fatalf("string round trip: %q vs %q", q.String(), p.String())
	}
	// Bare number shorthand.
	if p, err = ParseFaultPlan("0.05"); err != nil || p.Drop != 0.05 {
		t.Fatalf("shorthand: %+v, %v", p, err)
	}
	// Empty string is a nil plan.
	if p, err = ParseFaultPlan(""); err != nil || p != nil {
		t.Fatalf("empty: %+v, %v", p, err)
	}
	for _, bad := range []string{"drop=x", "nope=1", "stall=1:2", "stall=1:0:2", "drop=2"} {
		if _, err := ParseFaultPlan(bad); !errors.Is(err, ErrBadFaultPlan) {
			t.Errorf("ParseFaultPlan(%q) = %v, want ErrBadFaultPlan", bad, err)
		}
	}
}
