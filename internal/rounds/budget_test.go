package rounds

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestBudgetNilIsInert(t *testing.T) {
	var b *Budget
	if err := b.Check("phase"); err != nil {
		t.Fatalf("nil budget: %v", err)
	}
	if b.Bind(New()) != nil {
		t.Fatal("nil budget must bind to nil")
	}
	if b.Used() != 0 || b.Elapsed() != 0 || b.Remaining() != -1 {
		t.Fatal("nil budget accessors must be zero/unlimited")
	}
}

func TestBudgetZeroLimitsAreInert(t *testing.T) {
	l := New()
	b := NewBudget(0, 0).Bind(l)
	l.Add("x", Measured, 1_000_000, "")
	if err := b.Check("phase"); err != nil {
		t.Fatalf("zero-limit budget tripped: %v", err)
	}
}

func TestBudgetRoundsExhaustion(t *testing.T) {
	l := New()
	b := NewBudget(10, 0).Bind(l)
	l.Add("cheby-iter", Measured, 4, "")
	if err := b.Check("attempt-0"); err != nil {
		t.Fatalf("under budget: %v", err)
	}
	if got := b.Remaining(); got != 6 {
		t.Fatalf("Remaining = %d, want 6", got)
	}
	l.Add("cheby-iter", Measured, 4, "")
	l.Add("gather", Charged, 4, "cite")
	err := b.Check("attempt-1")
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %T", err)
	}
	if be.Phase != "attempt-1" || be.Used != 12 || be.Limit != 10 {
		t.Fatalf("error fields: %+v", be)
	}
	// Partial stats carry the work done before exhaustion.
	if be.Partial.MeasuredRounds != 8 || be.Partial.ChargedRounds != 4 {
		t.Fatalf("partial stats: %+v", be.Partial)
	}
	if b.Remaining() != 0 {
		t.Fatalf("Remaining after exhaustion = %d, want 0", b.Remaining())
	}
}

func TestBudgetBindDelta(t *testing.T) {
	// A budget bound after earlier work only meters the delta.
	l := New()
	l.Add("warmup", Measured, 100, "")
	b := NewBudget(10, 0).Bind(l)
	l.Add("work", Measured, 5, "")
	if err := b.Check("phase"); err != nil {
		t.Fatalf("budget counted pre-bind rounds: %v", err)
	}
	if b.Used() != 5 {
		t.Fatalf("Used = %d, want 5", b.Used())
	}
}

func TestBudgetWallDeadline(t *testing.T) {
	b := NewBudget(0, time.Nanosecond).Bind(nil)
	time.Sleep(time.Millisecond)
	err := b.Check("slow-phase")
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.WallLimit != time.Nanosecond {
		t.Fatalf("wall fields: %v", err)
	}
}

func TestBudgetErrorMessages(t *testing.T) {
	roundErr := &BudgetError{Phase: "ipm-iter-3", Used: 12, Limit: 10}
	if msg := roundErr.Error(); !strings.Contains(msg, "ipm-iter-3") || !strings.Contains(msg, "12/10") {
		t.Fatalf("round message: %q", msg)
	}
	wallErr := &BudgetError{Phase: "level-2", WallLimit: time.Second, Elapsed: 2 * time.Second}
	if msg := wallErr.Error(); !strings.Contains(msg, "level-2") || !strings.Contains(msg, "wall") {
		t.Fatalf("wall message: %q", msg)
	}
}

func TestParseBudget(t *testing.T) {
	cases := []struct {
		in     string
		rounds int64
		wall   time.Duration
		nilOK  bool
		err    bool
	}{
		{in: "", nilOK: true},
		{in: "  ", nilOK: true},
		{in: "5000", rounds: 5000},
		{in: "rounds=123", rounds: 123},
		{in: "wall=2s", wall: 2 * time.Second},
		{in: "rounds=10,wall=500ms", rounds: 10, wall: 500 * time.Millisecond},
		{in: " rounds=7 , wall=1m ", rounds: 7, wall: time.Minute},
		{in: "-3", err: true},
		{in: "rounds=x", err: true},
		{in: "wall=banana", err: true},
		{in: "cycles=9", err: true},
		{in: "rounds", err: true},
	}
	for _, c := range cases {
		b, err := ParseBudget(c.in)
		if c.err {
			if err == nil {
				t.Fatalf("ParseBudget(%q): want error, got %+v", c.in, b)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseBudget(%q): %v", c.in, err)
		}
		if c.nilOK {
			if b != nil {
				t.Fatalf("ParseBudget(%q) = %+v, want nil", c.in, b)
			}
			continue
		}
		if b.MaxRounds != c.rounds || b.MaxWall != c.wall {
			t.Fatalf("ParseBudget(%q) = {%d %v}, want {%d %v}",
				c.in, b.MaxRounds, b.MaxWall, c.rounds, c.wall)
		}
	}
}

// FuzzParseBudget fuzzes the -budget spec parser: no input panics, and
// every accepted budget has non-negative round and wall limits.
func FuzzParseBudget(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		b, err := ParseBudget(spec)
		if err != nil || b == nil {
			return
		}
		if b.MaxRounds < 0 || b.MaxWall < 0 {
			t.Fatalf("ParseBudget(%q) accepted %d rounds, %v wall", spec, b.MaxRounds, b.MaxWall)
		}
	})
}
