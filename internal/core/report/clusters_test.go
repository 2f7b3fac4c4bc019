package report

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core/eai"
	"repro/internal/core/inject"
	"repro/internal/core/policy"
	"repro/internal/core/sched"
	"repro/internal/interpose"
)

// suiteResults are two campaign results: alpha tolerates both its
// injections at both its sites; beta violates once and perturbs one
// of its four sites.
func suiteResults() []*inject.Result {
	mkInj := func(tolerate bool) inject.Injection {
		in := inject.Injection{Point: "s#0", Site: "s", FaultID: "direct/file-system/existence",
			Class: eai.ClassDirect, Attr: eai.AttrExistence, Applied: true}
		if !tolerate {
			in.Violations = []policy.Violation{{Kind: policy.KindIntegrity, Object: "/x"}}
		}
		return in
	}
	return []*inject.Result{
		{
			Campaign:       "alpha",
			TotalSites:     []string{"a", "b"},
			PerturbedSites: []string{"a", "b"},
			Injections:     []inject.Injection{mkInj(true), mkInj(true)},
		},
		{
			Campaign:       "beta",
			TotalSites:     []string{"a", "b", "c", "d"},
			PerturbedSites: []string{"a"},
			Injections:     []inject.Injection{mkInj(false), mkInj(true)},
		},
	}
}

func scheduledSuite() *sched.SuiteResult {
	results := suiteResults()
	return &sched.SuiteResult{Campaigns: []sched.CampaignResult{
		{Job: sched.Job{Name: "alpha", Variant: "vulnerable"}, Result: results[0]},
		{Job: sched.Job{Name: "beta", Variant: "fixed"}, Result: results[1]},
		{Job: sched.Job{Name: "gamma", Variant: "vulnerable"}, Err: inject.ErrNoWorld},
	}}
}

func TestSuiteRunRendering(t *testing.T) {
	t.Parallel()
	out := SuiteRun(scheduledSuite())
	for _, want := range []string{
		"alpha/vulnerable", "beta/fixed", "gamma/vulnerable", "FAILED", "region",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("suite run missing %q:\n%s", want, out)
		}
	}
	// Violations, FC and IC per row.
	for label, want := range map[string]string{
		"alpha/vulnerable": "0 1.000 1.000",
		"beta/fixed":       "1 0.500 0.250",
	} {
		found := false
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 5 && f[0] == label {
				found = true
				if got := strings.Join(f[3:6], " "); got != want {
					t.Errorf("%s: violations, FC, IC = %s, want %s", label, got, want)
				}
			}
		}
		if !found {
			t.Errorf("no row for %s:\n%s", label, out)
		}
	}
}

func TestClustersRendering(t *testing.T) {
	t.Parallel()
	clusters := []sched.Cluster{
		{
			Sig: sched.Signature{
				Rule:  policy.KindIntegrity,
				Class: eai.ClassDirect,
				Attr:  eai.AttrExistence,
				Kind:  interpose.KindFile,
			},
			Findings: []sched.Finding{
				{Campaign: "alpha", Variant: "vulnerable", Point: "s#0",
					FaultID: "direct/file-system/existence", Object: "/x"},
				{Campaign: "beta", Variant: "vulnerable", Point: "t#0",
					FaultID: "direct/file-system/existence", Object: "/y"},
			},
		},
	}
	out := Clusters(clusters)
	for _, want := range []string{
		"1 violation classes", "[2 finding(s)]", "alpha/vulnerable", "beta/vulnerable", "/x", "/y",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("clusters missing %q:\n%s", want, out)
		}
	}
}

// referenceClusters is Clusters as fmt rendered it.
func referenceClusters(clusters []sched.Cluster) string {
	var b strings.Builder
	fmt.Fprintf(&b, "clustered findings: %d violation classes\n", len(clusters))
	for _, cl := range clusters {
		fmt.Fprintf(&b, "\n[%d finding(s)] %s\n", len(cl.Findings), cl.Sig)
		fmt.Fprintf(&b, "  campaigns: %s\n", strings.Join(cl.Campaigns(), ", "))
		for _, f := range cl.Findings {
			fmt.Fprintf(&b, "  %-24s %-24s %-44s %s\n", f.Label(), f.Point, f.FaultID, f.Object)
		}
	}
	return b.String()
}

// TestClustersPadLikeFmt holds the direct renderer to fmt's %-Ns
// padding, which counts runes (an invalid byte is one), on multi-byte,
// invalid, exactly-full and overlong columns, and on campaign labels
// that repeat out of order.
func TestClustersPadLikeFmt(t *testing.T) {
	t.Parallel()
	sig := sched.Signature{Rule: policy.KindCrash, Class: eai.ClassIndirect, Sem: eai.SemRaw, Kind: interpose.KindNetwork}
	clusters := []sched.Cluster{{Sig: sig, Findings: []sched.Finding{
		{Campaign: "ümlaut", Variant: "vulnérable", Point: "读:stdin#1", FaultID: "indirect/ネット", Object: "/é"},
		{Campaign: "alpha", Point: "\xff\xfe#2", FaultID: strings.Repeat("f", 44), Object: ""},
		{Campaign: strings.Repeat("a", 24), Variant: "", Point: strings.Repeat("p", 30), FaultID: strings.Repeat("ø", 50)},
		{Campaign: "ümlaut", Variant: "vulnérable", Point: "", FaultID: ""},
		{Campaign: strings.Repeat("c", 23), Variant: "v", Point: "x"},
	}}, {Sig: sig}}
	if got, want := Clusters(clusters), referenceClusters(clusters); got != want {
		t.Errorf("Clusters diverges from fmt:\n--- got\n%s--- want\n%s", got, want)
	}
	if got := clusters[0].Campaigns(); len(got) != 4 {
		t.Errorf("Campaigns() = %q, want 4 distinct labels", got)
	}
}
