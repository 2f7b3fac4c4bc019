package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core/findings"
)

// exportFindings runs eptest with the given args plus -findings and
// returns the exported file's bytes.
func exportFindings(t *testing.T, dir, name string, args ...string) []byte {
	t.Helper()
	path := filepath.Join(dir, name)
	var out, errb bytes.Buffer
	code := run(append(args, "-findings", path), &out, &errb)
	if code != 0 && code != 1 {
		t.Fatalf("run(%v) exit = %d, stderr = %s", args, code, errb.String())
	}
	if !strings.Contains(out.String(), "finding record(s) to "+path) {
		t.Fatalf("stdout missing findings trailer:\n%s", out.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenFindings compares an export against a committed golden file,
// honouring the shared -golden-update flag.
func goldenFindings(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *goldenUpdate {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -golden-update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("findings export drifted from golden %s.\nIf the change is deliberate, rerun with -golden-update and review the diff.\n--- got ---\n%s", path, got)
	}
}

// TestGoldenFindingsExport pins the canonical findings file for the
// base suite and a matrix slice: the eptest-findings/1 encoding is a
// published stability contract, so a single drifted byte must fail CI.
func TestGoldenFindingsExport(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	goldenFindings(t, "findings-base.json",
		exportFindings(t, dir, "base.json", "-all", "-j", "4"))
	goldenFindings(t, "findings-matrix-lpr.json",
		exportFindings(t, dir, "matrix.json", "-all", "-matrix", "-filter", "lpr/*", "-j", "4"))
}

// TestFindingsShardMergeIdentical shards a matrix slice across two
// cache-sharing workers and re-exports from -merge: the merged findings
// file must be byte-identical to the single-process export — the
// fleet-assembly invariant the differ depends on.
func TestFindingsShardMergeIdentical(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	full := exportFindings(t, dir, "full.json",
		"-all", "-matrix", "-filter", "lpr-create-site/*", "-j", "4")
	for _, shard := range []string{"1/2", "2/2"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-all", "-matrix", "-filter", "lpr-create-site/*", "-j", "4",
			"-shard", shard, "-cache", cache}, &out, &errb); code != 0 {
			t.Fatalf("shard %s: exit = %d, stderr = %s", shard, code, errb.String())
		}
	}
	merged := exportFindings(t, dir, "merged.json", "-merge", cache, "-matrix")
	if !bytes.Equal(merged, full) {
		t.Errorf("merged findings diverge from single-process export:\n--- merged ---\n%s--- full ---\n%s", merged, full)
	}
}

// TestFindingsWarmCacheIdentical re-exports through a warm result
// cache: replayed results must produce the same findings bytes as the
// cold run that populated the cache.
func TestFindingsWarmCacheIdentical(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	cold := exportFindings(t, dir, "cold.json",
		"-all", "-filter", "turnin*", "-j", "4", "-cache", cache)
	warm := exportFindings(t, dir, "warm.json",
		"-all", "-filter", "turnin*", "-j", "4", "-cache", cache)
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm-cache findings diverge from cold run:\n--- warm ---\n%s--- cold ---\n%s", warm, cold)
	}
}

// TestDiffCLI drives `eptest -diff` end to end: identical exports show
// zero drift and pass the gate; a synthesized new finding is reported
// and trips -diff-fail-on new with exit 1.
func TestDiffCLI(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	base := exportFindings(t, dir, "a.json", "-all", "-filter", "turnin*", "-j", "4")
	old := filepath.Join(dir, "a.json")
	cur := filepath.Join(dir, "b.json")
	if err := os.WriteFile(cur, base, 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if code := run([]string{"-diff", old, cur}, &out, &errb); code != 0 {
		t.Fatalf("identical diff exit = %d, stderr = %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "no drift.") {
		t.Fatalf("identical diff output:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-diff", old, cur, "-diff-fail-on", "new"}, &out, &errb); code != 0 {
		t.Fatalf("gated identical diff exit = %d, stderr = %s", code, errb.String())
	}

	// Synthesize a new finding in the current file and watch the gate
	// trip.
	rep, err := findings.Decode(base)
	if err != nil {
		t.Fatal(err)
	}
	syn := rep.Findings[0]
	syn.ID = "EPT-ffffffffffffffff"
	syn.App = "synthetic"
	rep.Findings = append(rep.Findings, syn)
	sb, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cur, append(sb, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	code := run([]string{"-diff", old, cur, "-diff-fail-on", "new"}, &out, &errb)
	if code != 1 {
		t.Fatalf("gated drifting diff exit = %d, want 1 (stderr %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "EPT-ffffffffffffffff") || !strings.Contains(out.String(), "new ") {
		t.Errorf("diff output missing the synthesized finding:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "findings gate") {
		t.Errorf("stderr missing gate message: %q", errb.String())
	}
}

// TestFindingsFlagValidation pins the CLI contract around the new
// flags: -findings needs a suite or merge run, -diff rejects other
// modes and malformed gate specs.
func TestFindingsFlagValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-findings", "f.json", "-campaign", "turnin"}, "-findings does not apply to -campaign"},
		{[]string{"-findings", "f.json", "-list"}, "-findings does not apply to -list"},
		{[]string{"-diff-fail-on", "new", "-all"}, "-diff-fail-on does not apply to -all"},
		{[]string{"-diff", "old.json"}, "needs exactly one NEW findings file"},
		{[]string{"-diff", "old.json", "new.json", "-all"}, "-all does not apply to -diff"},
		{[]string{"-diff", "old.json", "new.json", "-diff-fail-on", "bogus"}, "bogus"},
		{[]string{"-diff", "missing-old.json", "missing-new.json"}, "missing-old.json"},
	}
	for _, tc := range cases {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("run(%v) exit = %d, want 2 (stderr %s)", tc.args, code, errb.String())
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("run(%v) stderr = %q, want %q", tc.args, errb.String(), tc.want)
		}
	}
}
