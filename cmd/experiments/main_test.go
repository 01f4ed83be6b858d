package main

import (
	"strings"
	"testing"

	"lapcc/internal/experiments"
)

func TestSelectExperimentsRejectsUnknownID(t *testing.T) {
	for _, flag := range []string{"E99", "E1,E99", " e99 "} {
		got, err := selectExperiments(flag)
		if err == nil {
			t.Fatalf("-run %q selected %d experiments, want an error", flag, len(got))
		}
		if !strings.Contains(err.Error(), "E99") || !strings.Contains(err.Error(), "E16") {
			t.Fatalf("-run %q: error %q should name the unknown ID and list the known ones", flag, err)
		}
	}
}

func TestSelectExperimentsAnyCaseWithSpaces(t *testing.T) {
	got, err := selectExperiments("e1, E8")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "E1" || got[1].ID != "E8" {
		ids := make([]string, len(got))
		for i, e := range got {
			ids[i] = e.ID
		}
		t.Fatalf("selected %v, want [E1 E8]", ids)
	}
}

func TestSelectExperimentsAll(t *testing.T) {
	got, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(experiments.All()) {
		t.Fatalf("all selected %d of %d experiments", len(got), len(experiments.All()))
	}
}
