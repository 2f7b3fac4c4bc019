package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestMatrixFlagRequiresAll mirrors the other suite-only flags: alone
// they select no mode, and beside -campaign they are refused.
func TestMatrixFlagRequiresAll(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-matrix"}, "-campaign required"},
		{[]string{"-filter", "lpr*"}, "-campaign required"},
		{[]string{"-matrix", "-campaign", "lpr"}, "-matrix does not apply to -campaign"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%v: exit = %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%v: stderr = %q, want %q", tc.args, errb.String(), tc.want)
		}
	}
}

// TestFilterZeroJobsRejected: a filter that selects nothing must be a
// loud error, not an empty report.
func TestFilterZeroJobsRejected(t *testing.T) {
	t.Parallel()
	var out, errb bytes.Buffer
	code := run([]string{"-all", "-filter", "no-such-app*"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (stdout: %q)", code, out.String())
	}
	if !strings.Contains(errb.String(), "selects zero jobs") {
		t.Errorf("stderr = %q", errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("an empty selection still printed a report:\n%s", out.String())
	}
}

// TestShardZeroJobsRejected: a filter/shard combination whose
// partition is empty must be rejected before any work runs.
func TestShardZeroJobsRejected(t *testing.T) {
	t.Parallel()
	var out, errb bytes.Buffer
	// lpr-create-site/fixed is a single job; shard 2/2 of a one-job
	// catalog owns nothing.
	code := run([]string{"-all", "-filter", "lpr-create-site/fixed", "-shard", "2/2", "-cache", t.TempDir()}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (stdout: %q)", code, out.String())
	}
	if !strings.Contains(errb.String(), "selects zero jobs") {
		t.Errorf("stderr = %q", errb.String())
	}
}

// TestMatrixSuiteSlice runs a narrow matrix slice end to end and
// checks the matrix-only report surface.
func TestMatrixSuiteSlice(t *testing.T) {
	t.Parallel()
	var out, errb bytes.Buffer
	code := run([]string{"-all", "-matrix", "-filter", "lpr-create-site/*", "-j", "4"}, &out, &errb)
	if code != 0 {
		// Suite exit reflects scheduling health, not violations.
		t.Fatalf("exit = %d, want 0, stderr = %s", code, errb.String())
	}
	for _, want := range []string{
		"lpr-create-site/vulnerable+nodedup",
		"lpr-create-site/fixed+late-direct",
		"matrix:",
		"by application:",
		"by engine option:",
		"by site cut:",
		"nodedup",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("matrix report missing %q:\n%s", want, out.String())
		}
	}
}

// TestMatrixShardMergeRoundTrip shards a matrix slice across two
// workers and merges with -matrix: the merged report, rollup
// included, must be byte-identical to the single-process run up to
// the trailing merged-shard section.
func TestMatrixShardMergeRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	var full, errb bytes.Buffer
	if code := run([]string{"-all", "-matrix", "-filter", "lpr-create-site/*", "-j", "4"}, &full, &errb); code != 0 {
		t.Fatalf("single process: exit = %d, stderr = %s", code, errb.String())
	}
	for _, shard := range []string{"1/2", "2/2"} {
		var out bytes.Buffer
		errb.Reset()
		if code := run([]string{"-all", "-matrix", "-filter", "lpr-create-site/*", "-j", "4", "-shard", shard, "-cache", dir}, &out, &errb); code != 0 {
			t.Fatalf("shard %s: exit = %d, stderr = %s", shard, code, errb.String())
		}
	}
	var merged bytes.Buffer
	errb.Reset()
	if code := run([]string{"-merge", dir, "-matrix"}, &merged, &errb); code != 0 {
		t.Fatalf("merge: exit = %d, stderr = %s", code, errb.String())
	}
	got := merged.String()
	cut := strings.Index(got, "merged from")
	if cut < 0 {
		t.Fatalf("merge output missing merged-shard section:\n%s", got)
	}
	// Trim the section plus the blank line that precedes it.
	got = strings.TrimSuffix(got[:cut], "\n")
	if got != full.String() {
		t.Errorf("merged matrix report diverges from single-process run:\n--- merged ---\n%s\n--- full ---\n%s", got, full.String())
	}
}

// TestFilterOnBaseCatalog: -filter works without -matrix too.
func TestFilterOnBaseCatalog(t *testing.T) {
	t.Parallel()
	var out, errb bytes.Buffer
	code := run([]string{"-all", "-filter", "*/fixed", "-j", "4"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	if strings.Contains(out.String(), "/vulnerable") {
		t.Errorf("filter leaked vulnerable variants:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "turnin/fixed") {
		t.Errorf("filtered suite missing turnin/fixed:\n%s", out.String())
	}
}
