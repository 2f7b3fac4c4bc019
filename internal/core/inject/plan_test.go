package inject

import (
	"errors"
	"testing"

	"repro/internal/core/eai"
	"repro/internal/interpose"
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

func TestEquivalenceGroups(t *testing.T) {
	t.Parallel()
	mkEv := func(seq int, site string, op interpose.Op, kind interpose.ObjectKind, obj string) interpose.Event {
		return interpose.Event{
			Call:         interpose.Call{Seq: seq, Site: site, Op: op, Kind: kind, Path: obj},
			ResolvedPath: obj,
		}
	}
	trace := []interpose.Event{
		mkEv(0, "a:open", interpose.OpOpen, interpose.KindFile, "/etc/conf"),
		mkEv(1, "a:read", interpose.OpRead, interpose.KindFile, "/etc/conf"),
		mkEv(2, "a:arg", interpose.OpArg, interpose.KindArg, "argv[1]"),
		mkEv(3, "a:create", interpose.OpCreate, interpose.KindFile, "/tmp/out"),
		mkEv(4, "a:write", interpose.OpWrite, interpose.KindFile, "/tmp/out"),
		mkEv(5, "a:read2", interpose.OpRead, interpose.KindFile, "/etc/conf"),
	}
	groups := EquivalenceGroups(trace)
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if groups[0].Object != "/etc/conf" || len(groups[0].Sites) != 3 {
		t.Errorf("group 0 = %v", groups[0])
	}
	if groups[1].Object != "/tmp/out" || len(groups[1].Sites) != 2 {
		t.Errorf("group 1 = %v", groups[1])
	}
	// argv has no direct-fault entity and is excluded.
	for _, g := range groups {
		if g.Kind == interpose.KindArg {
			t.Error("argv grouped")
		}
	}
	if rf := ReductionFactor(groups); rf != 2.5 {
		t.Errorf("reduction factor = %v, want 2.5 (5 sites / 2 objects)", rf)
	}
	if ReductionFactor(nil) != 1 {
		t.Error("empty reduction factor != 1")
	}
	if groups[0].String() == "" {
		t.Error("empty String()")
	}
}

func TestEquivalenceOnLprTrace(t *testing.T) {
	t.Parallel()
	res, err := Run(lprCampaign())
	if err != nil {
		t.Fatal(err)
	}
	groups := EquivalenceGroups(res.CleanTrace)
	// The mini lpr touches one file-entity object (the spool file) via two
	// sites: create and write.
	if len(groups) != 1 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groups[0].Sites) != 2 || groups[0].Object != "/var/spool/lpd/cfa001" {
		t.Errorf("group = %v", groups[0])
	}
	if rf := ReductionFactor(groups); rf != 2 {
		t.Errorf("reduction factor = %v", rf)
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
