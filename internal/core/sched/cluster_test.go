package sched_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
)

// violationCount sums the individual policy violations in a result —
// the number of findings clustering must preserve.
func violationCount(res *inject.Result) int {
	n := 0
	for _, in := range res.Violations() {
		n += len(in.Violations)
	}
	return n
}

// TestClusterResultPreservesFindings clusters one campaign and checks
// no violation is dropped or duplicated.
func TestClusterResultPreservesFindings(t *testing.T) {
	t.Parallel()
	spec, err := apps.Lookup("turnin")
	if err != nil {
		t.Fatal(err)
	}
	res, err := inject.Run(spec.Vulnerable())
	if err != nil {
		t.Fatal(err)
	}
	clusters := sched.ClusterSuite(&sched.SuiteResult{Campaigns: []sched.CampaignResult{
		{Job: sched.Job{Name: "turnin"}, Result: res},
	}})
	if len(clusters) == 0 {
		t.Fatal("vulnerable turnin produced no clusters")
	}
	total := 0
	for _, cl := range clusters {
		if len(cl.Findings) == 0 {
			t.Errorf("empty cluster %s", cl.Sig)
		}
		total += len(cl.Findings)
		for _, f := range cl.Findings {
			if f.Campaign != "turnin" {
				t.Errorf("finding credited to %q, want turnin", f.Campaign)
			}
		}
	}
	if want := violationCount(res); total != want {
		t.Errorf("clusters hold %d findings, result has %d violations", total, want)
	}
	if len(clusters) >= violationCount(res) {
		t.Errorf("clustering did not deduplicate: %d clusters for %d findings",
			len(clusters), violationCount(res))
	}
}

// TestClusterSuiteOrdering checks suite-level clusters merge findings
// across campaigns and arrive largest-first.
func TestClusterSuiteOrdering(t *testing.T) {
	t.Parallel()
	sr := sched.RunSuite(apps.SuiteJobs(), sched.SuiteOptions{Workers: 8})
	if len(sr.Failed()) != 0 {
		t.Fatalf("failed campaigns: %v", sr.Failed())
	}
	clusters := sched.ClusterSuite(sr)
	if len(clusters) == 0 {
		t.Fatal("catalog suite produced no clusters")
	}
	wantTotal := 0
	for _, c := range sr.Campaigns {
		wantTotal += violationCount(c.Result)
	}
	total := 0
	crossCampaign := false
	for i, cl := range clusters {
		total += len(cl.Findings)
		if i > 0 && len(cl.Findings) > len(clusters[i-1].Findings) {
			t.Errorf("clusters not sorted by size: %d before %d", len(clusters[i-1].Findings), len(cl.Findings))
		}
		if len(cl.Campaigns()) > 1 {
			crossCampaign = true
		}
	}
	if total != wantTotal {
		t.Errorf("suite clusters hold %d findings, campaigns report %d", total, wantTotal)
	}
	if !crossCampaign {
		t.Error("no cluster spans multiple campaigns; suite-level dedup is vacuous")
	}
}

// TestClusterSkipsFailedCampaigns tolerates jobs that errored.
func TestClusterSkipsFailedCampaigns(t *testing.T) {
	t.Parallel()
	sr := &sched.SuiteResult{Campaigns: []sched.CampaignResult{
		{Job: sched.Job{Name: "broken"}, Err: inject.ErrNoWorld},
	}}
	if cl := sched.ClusterSuite(sr); len(cl) != 0 {
		t.Fatalf("clusters from failed campaigns: %v", cl)
	}
}
