package apps

import (
	"strings"
	"testing"

	"repro/internal/core/inject"
)

func TestCatalogComplete(t *testing.T) {
	t.Parallel()
	specs := Catalog()
	if len(specs) != 10 {
		t.Fatalf("catalog has %d campaigns", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Name == "" || s.Paper == "" || s.Vulnerable == nil || s.Fixed == nil {
			t.Errorf("incomplete spec %+v", s)
		}
		if seen[s.Name] {
			t.Errorf("duplicate name %s", s.Name)
		}
		seen[s.Name] = true
	}
	// Sorted.
	for i := 1; i < len(specs); i++ {
		if specs[i-1].Name >= specs[i].Name {
			t.Errorf("catalog not sorted: %s before %s", specs[i-1].Name, specs[i].Name)
		}
	}
}

func TestLookup(t *testing.T) {
	t.Parallel()
	s, err := Lookup("turnin")
	if err != nil || s.Name != "turnin" {
		t.Fatalf("Lookup = %+v, %v", s, err)
	}
	if _, err := Lookup("missing"); err == nil || !strings.Contains(err.Error(), "unknown campaign") {
		t.Errorf("err = %v", err)
	}
}

// TestEveryCampaignRuns is the catalog-wide smoke test: every registered
// campaign plans and runs in both variants, vulnerable variants find at
// least one violation, and fixed variants tolerate everything.
func TestEveryCampaignRuns(t *testing.T) {
	t.Parallel()
	for _, spec := range Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			vuln, err := inject.Run(spec.Vulnerable())
			if err != nil {
				t.Fatalf("vulnerable: %v", err)
			}
			if vuln.Metric().FaultsInjected == 0 {
				t.Error("vulnerable campaign injected nothing")
			}
			if vuln.Metric().Violations() == 0 {
				t.Error("vulnerable campaign found no violations")
			}
			fixed, err := inject.Run(spec.Fixed())
			if err != nil {
				t.Fatalf("fixed: %v", err)
			}
			for _, in := range fixed.Injections {
				if !in.Tolerated() {
					t.Errorf("fixed variant violated under %s at %s: %v",
						in.FaultID, in.Point, in.Violations)
				}
			}
		})
	}
}

// TestPlansAreStable: planning is deterministic — two plans of the same
// campaign agree exactly.
func TestPlansAreStable(t *testing.T) {
	t.Parallel()
	for _, spec := range Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			a, err := inject.PrepareWith(spec.Vulnerable(), inject.Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := inject.PrepareWith(spec.Vulnerable(), inject.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if a.NumRuns() != b.NumRuns() {
				t.Fatalf("plan lengths differ: %d vs %d", a.NumRuns(), b.NumRuns())
			}
			for i := range a.NumRuns() {
				if a.Planned(i) != b.Planned(i) {
					t.Fatalf("plan[%d] differs: %+v vs %+v", i, a.Planned(i), b.Planned(i))
				}
			}
		})
	}
}
