package inject

import (
	"errors"
	"testing"

	"repro/internal/core/eai"
)

func TestPlanMatchesRun(t *testing.T) {
	t.Parallel()
	c := lprCampaign()
	c.Sites = nil
	plans, err := planAll(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != len(res.Injections) {
		t.Fatalf("plan = %d, run = %d injections", len(plans), len(res.Injections))
	}
	for i := range plans {
		if plans[i].FaultID != res.Injections[i].FaultID || plans[i].Point != res.Injections[i].Point {
			t.Errorf("plan[%d] = %+v, run = %+v", i, plans[i], res.Injections[i])
		}
	}
}

func TestPlanErrors(t *testing.T) {
	t.Parallel()
	if _, err := planAll(Campaign{}, Options{}); !errors.Is(err, ErrNoWorld) {
		t.Errorf("err = %v", err)
	}
}

func TestPlanRespectsOptions(t *testing.T) {
	t.Parallel()
	c := lprCampaign()
	c.Sites = nil
	direct, err := planAll(c, Options{OnlyDirect: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range direct {
		if p.Class != eai.ClassDirect {
			t.Errorf("OnlyDirect planned %v", p.Class)
		}
	}
	both, err := planAll(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(both) <= len(direct) {
		t.Errorf("full plan (%d) should exceed direct-only (%d)", len(both), len(direct))
	}
}

func TestRunUntilAdequate(t *testing.T) {
	t.Parallel()
	// Start from a single site; adequacy at 0.6 forces widening.
	c := lprCampaign() // sites = [lpr:create] only
	res, rounds, err := RunUntilAdequate(c, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 2 {
		t.Errorf("rounds = %d, expected widening", rounds)
	}
	if res.Metric().InteractionCoverage() < 0.6 {
		t.Errorf("final IC = %v < threshold", res.Metric().InteractionCoverage())
	}
}

func TestRunUntilAdequateUnreachableStops(t *testing.T) {
	t.Parallel()
	// Threshold 1.0 may be unreachable (the write site dedups away); the
	// loop must terminate once every site is covered.
	c := lprCampaign()
	res, rounds, err := RunUntilAdequate(c, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if rounds > 10 {
		t.Errorf("rounds = %d, loop did not converge", rounds)
	}
	if len(res.PerturbedSites) == 0 {
		t.Error("nothing perturbed")
	}
}

func TestRunUntilAdequateAlreadyAdequate(t *testing.T) {
	t.Parallel()
	c := lprCampaign()
	c.Sites = nil // all sites at once
	_, rounds, err := RunUntilAdequate(c, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 1 {
		t.Errorf("rounds = %d, want 1", rounds)
	}
}

// planAll lists every run the campaign's plan would perform under opt:
// the dry-run counterpart of Run.
func planAll(c Campaign, opt Options) ([]PlannedInjection, error) {
	plan, err := PrepareWith(c, opt)
	if err != nil {
		return nil, err
	}
	out := make([]PlannedInjection, plan.NumRuns())
	for i := range out {
		out[i] = plan.Planned(i)
	}
	return out, nil
}
