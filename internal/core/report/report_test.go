package report

import (
	"strings"
	"testing"

	"repro/internal/core/eai"
	"repro/internal/core/inject"
	"repro/internal/core/policy"
)

func sampleResult() *inject.Result {
	return &inject.Result{
		Campaign:       "sample",
		TotalSites:     []string{"a", "b", "c"},
		PerturbedSites: []string{"a", "b"},
		Injections: []inject.Injection{
			{Point: "a#0", Site: "a", FaultID: "direct/file-system/existence", Class: eai.ClassDirect, Attr: eai.AttrExistence, Applied: true},
			{Point: "a#0", Site: "a", FaultID: "direct/file-system/symbolic-link", Class: eai.ClassDirect, Attr: eai.AttrSymlink, Applied: true,
				Violations: []policy.Violation{{Kind: policy.KindIntegrity, Object: "/etc/passwd", Point: "a#0", Detail: "d"}}},
			{Point: "b#0", Site: "b", FaultID: "indirect/file-name/change-length", Class: eai.ClassIndirect, Sem: eai.SemFileName, Applied: true,
				CrashMsg: "overflow", Violations: []policy.Violation{{Kind: policy.KindCrash, Object: "process", Detail: "overflow"}}},
		},
	}
}

func TestCampaignReport(t *testing.T) {
	t.Parallel()
	out := Campaign(sampleResult())
	for _, want := range []string{
		"sample",
		"faults injected (n)         : 3",
		"security violations         : 2",
		"fault coverage              : 0.333",
		"interaction coverage        : 0.667",
		"integrity(/etc/passwd)",
		"crash(process)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestPerPoint(t *testing.T) {
	t.Parallel()
	out := PerPoint(sampleResult())
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Errorf("per-point missing sites:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 sites
		t.Errorf("per-point lines = %d:\n%s", len(lines), out)
	}
}

func TestTable5Rendering(t *testing.T) {
	t.Parallel()
	out := Table5()
	for _, want := range []string{
		"file-name", "command", "path-list", "permission-mask",
		"file-extension", "ip-address", "packet", "host-name",
		"dns-reply", "process-message",
		"change-length", "insert-dotdot", "rearrange-order", "zero-mask",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 5 missing %q", want)
		}
	}
	if strings.Contains(out, "raw") {
		t.Error("Table 5 should not include the raw fallback row")
	}
}

func TestTable6Rendering(t *testing.T) {
	t.Parallel()
	out := Table6()
	for _, want := range []string{
		"file-system", "network", "process", "registry",
		"existence", "symbolic-link", "permission", "ownership",
		"content-invariance", "name-invariance", "working-directory",
		"message-authenticity", "protocol", "socket-share",
		"service-availability", "entity-trustability",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 6 missing %q", want)
		}
	}
}

func TestCountTable(t *testing.T) {
	t.Parallel()
	ct := CountTable{
		Title:      "Table 1: high-level classification",
		Categories: []string{"indirect", "direct", "others"},
		Counts:     map[string]int{"indirect": 81, "direct": 48, "others": 13},
	}
	if ct.Total() != 142 {
		t.Errorf("total = %d", ct.Total())
	}
	out := ct.String()
	for _, want := range []string{"total 142", "indirect", "81", "57.0%", "33.8%", "9.2%"} {
		if !strings.Contains(out, want) {
			t.Errorf("count table missing %q:\n%s", want, out)
		}
	}
	// Empty table renders without dividing by zero.
	empty := CountTable{Title: "t", Categories: []string{"x"}, Counts: map[string]int{}}
	if !strings.Contains(empty.String(), "0.0%") {
		t.Error("empty table percent")
	}
}
