package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestAllExperimentsHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) != 14 {
		t.Fatalf("%d experiments, want 14", len(seen))
	}
}

// TestQuickRunsProduceTables executes every experiment in quick mode: each
// must succeed and emit its claim-shape line. This is the regression net
// that keeps EXPERIMENTS.md regenerable.
func TestQuickRunsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are slow")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, true); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if !strings.Contains(out, "claim shape") {
				t.Fatalf("%s output lacks the claim-shape note:\n%s", e.ID, out)
			}
			if len(strings.Split(out, "\n")) < 5 {
				t.Fatalf("%s output suspiciously short:\n%s", e.ID, out)
			}
		})
	}
}
