package sched

import (
	"testing"

	"repro/internal/apps/lpr"
	"repro/internal/core/inject"
)

// testCampaignJob returns a real, fast campaign job (the lpr case
// study) for scheduling tests inside the package.
func testCampaignJob(t *testing.T) Job {
	t.Helper()
	return Job{
		Name:    "lpr",
		Variant: "vulnerable",
		Build:   func() inject.Campaign { return lpr.Campaign(lpr.Vulnerable) },
	}
}

func namedJobs(labels ...[2]string) []Job {
	jobs := make([]Job, len(labels))
	for i, l := range labels {
		jobs[i] = Job{Name: l[0], Variant: l[1]}
	}
	return jobs
}

func TestFilterJobs(t *testing.T) {
	t.Parallel()
	jobs := namedJobs(
		[2]string{"lpr", "vulnerable"},
		[2]string{"lpr", "fixed"},
		[2]string{"lpr", "vulnerable+nodedup"},
		[2]string{"lpr-create-site", "vulnerable"},
		[2]string{"turnin", "vulnerable+nodedup+s4"},
	)
	cases := []struct {
		pattern string
		want    []string
	}{
		{"", []string{"lpr/vulnerable", "lpr/fixed", "lpr/vulnerable+nodedup", "lpr-create-site/vulnerable", "turnin/vulnerable+nodedup+s4"}},
		{"lpr/*", []string{"lpr/vulnerable", "lpr/fixed", "lpr/vulnerable+nodedup"}},
		{"lpr*", []string{"lpr/vulnerable", "lpr/fixed", "lpr/vulnerable+nodedup", "lpr-create-site/vulnerable"}},
		{"*+nodedup*", []string{"lpr/vulnerable+nodedup", "turnin/vulnerable+nodedup+s4"}},
		{"*/fixed", []string{"lpr/fixed"}},
		{"turnin/vulnerable+nodedup+s4", []string{"turnin/vulnerable+nodedup+s4"}},
		{"lpr/?ixed", []string{"lpr/fixed"}},
		{"nomatch*", nil},
	}
	for _, tc := range cases {
		got := FilterJobs(jobs, tc.pattern)
		var labels []string
		for _, j := range got {
			labels = append(labels, j.Label())
		}
		if len(labels) != len(tc.want) {
			t.Errorf("FilterJobs(%q) = %v, want %v", tc.pattern, labels, tc.want)
			continue
		}
		for i := range labels {
			if labels[i] != tc.want[i] {
				t.Errorf("FilterJobs(%q) = %v, want %v", tc.pattern, labels, tc.want)
				break
			}
		}
	}
}

func TestGlobMatch(t *testing.T) {
	t.Parallel()
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"*", "anything/at+all", true},
		{"", "", true},
		{"", "x", false},
		{"a*b*c", "axxbxxc", true},
		{"a*b*c", "axxcxxb", false},
		{"*abc", "abc", true},
		{"abc*", "abc", true},
		{"a?c", "abc", true},
		{"a?c", "ac", false},
		{"**x", "yyyx", true},
		// Backtracking stress: many stars against a near-miss.
		{"*a*a*a*a*b", "aaaaaaaaaaaaaaaaaaac", false},
	}
	for _, tc := range cases {
		if got := globMatch(tc.pattern, tc.s); got != tc.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", tc.pattern, tc.s, got, tc.want)
		}
	}
}

// TestJobEngineOverride verifies the dispatcher applies a per-job
// engine override: the same campaign scheduled with and without
// NoObjectDedup must plan different run counts, and the override must
// not leak into sibling jobs that inherit the suite default.
func TestJobEngineOverride(t *testing.T) {
	t.Parallel()
	base := testCampaignJob(t)
	nodedup := base
	nodedup.Variant = "vulnerable+nodedup"
	nodedup.Engine = &inject.Options{NoObjectDedup: true}

	sr := RunSuite([]Job{base, nodedup}, SuiteOptions{Workers: 2})
	if len(sr.Failed()) != 0 {
		t.Fatalf("suite failed: %v", sr.Failed())
	}
	nBase := len(sr.Campaigns[0].Result.Injections)
	nSwept := len(sr.Campaigns[1].Result.Injections)
	if nSwept <= nBase {
		t.Fatalf("nodedup override planned %d runs, base %d; override not applied", nSwept, nBase)
	}

	// The base job must match a plain sequential run under default
	// options — the override is per-job, not suite-wide.
	want, err := inject.RunWith(base.Build(), inject.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nBase != len(want.Injections) {
		t.Fatalf("base job planned %d runs, sequential default plans %d", nBase, len(want.Injections))
	}
}

// TestWorldKey pins the label-to-world convention: the name plus the
// variant's program token, whatever axis tokens follow.
func TestWorldKey(t *testing.T) {
	t.Parallel()
	for label, want := range map[string]string{
		"lpr":                       "lpr",
		"lpr/vulnerable":            "lpr/vulnerable",
		"lpr/vulnerable+nodedup+s2": "lpr/vulnerable",
		"lpr/fixed+s4":              "lpr/fixed",
		"lpr+turnin/vulnerable+s2":  "lpr+turnin/vulnerable",
	} {
		if got := WorldKey(label); got != want {
			t.Errorf("WorldKey(%q) = %q, want %q", label, got, want)
		}
	}
}
