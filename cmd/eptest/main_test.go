package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
)

func TestList(t *testing.T) {
	t.Parallel()
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	for _, want := range []string{"turnin", "lpr", "ntreg-fontclean", "maildrop", "ftpget"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestMissingCampaignFlag(t *testing.T) {
	t.Parallel()
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-campaign required") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestUnknownCampaign(t *testing.T) {
	t.Parallel()
	var out, errb bytes.Buffer
	if code := run([]string{"-campaign", "nope"}, &out, &errb); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown campaign") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestBadFlag(t *testing.T) {
	t.Parallel()
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

func TestVulnerableCampaignExitsNonZero(t *testing.T) {
	t.Parallel()
	var out, errb bytes.Buffer
	code := run([]string{"-campaign", "lpr-create-site", "-per-point", "-v"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (violations found), stderr = %s", code, errb.String())
	}
	for _, want := range []string{
		"security violations         : 4",
		"lpr:create",
		"VIOLATED",
		"interaction point (site)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestFixedCampaignExitsZero(t *testing.T) {
	t.Parallel()
	var out, errb bytes.Buffer
	code := run([]string{"-campaign", "lpr-create-site", "-fixed"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0, stderr = %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "fault coverage              : 1.000") {
		t.Errorf("output:\n%s", out.String())
	}
}

// TestParallelCampaignOutputMatchesSequential runs every catalog
// campaign, in both variants, as a one-job suite on one worker (-j 1)
// and on eight (-j 8): the output and the exit code must match. The
// sched tests pin the suite against the sequential engine, inject.Run.
func TestParallelCampaignOutputMatchesSequential(t *testing.T) {
	t.Parallel()
	for _, spec := range apps.Catalog() {
		for _, variant := range []string{"vulnerable", "fixed"} {
			args := []string{"-campaign", spec.Name, "-per-point", "-v"}
			if variant == "fixed" {
				args = append(args, "-fixed")
			}
			t.Run(spec.Name+"/"+variant, func(t *testing.T) {
				t.Parallel()
				var seq, par, errb bytes.Buffer
				seqCode := run(args, &seq, &errb)
				parCode := run(slices.Concat(args, []string{"-j", "8"}), &par, &errb)
				if seqCode != parCode || seqCode > 1 {
					t.Fatalf("exit = %d sequential, %d parallel; stderr = %s", seqCode, parCode, errb.String())
				}
				if seq.String() != par.String() {
					t.Errorf("-j 8 output differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s", seq.String(), par.String())
				}
			})
		}
	}
}

func TestAllRunsSuiteWithClusters(t *testing.T) {
	t.Parallel()
	var out, errb bytes.Buffer
	if code := run([]string{"-all", "-j", "8"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	for _, want := range []string{
		"turnin/vulnerable", "turnin/fixed", "lpr/vulnerable",
		"clustered findings:", "finding(s)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("suite output missing %q", want)
		}
	}
	if strings.Contains(out.String(), "FAILED") {
		t.Errorf("suite reported failures:\n%s", out.String())
	}
}

func TestAllVerboseStreamsProgress(t *testing.T) {
	t.Parallel()
	var out, errb bytes.Buffer
	if code := run([]string{"-all", "-j", "4", "-v"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	for _, want := range []string{"planned", "injection runs", "done ("} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("verbose suite output missing %q", want)
		}
	}
}

func TestTurninCampaignNumbers(t *testing.T) {
	t.Parallel()
	var out, errb bytes.Buffer
	code := run([]string{"-campaign", "turnin"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{
		"faults injected (n)         : 41",
		"security violations         : 9",
		"points perturbed            : 8",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}
