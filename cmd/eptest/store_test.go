package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// suiteReport returns the output up to (excluding) the result-cache
// section — the part of a -cache run that must be byte-identical
// between cold and warm runs.
func suiteReport(out string) string {
	if i := strings.Index(out, "result cache:"); i >= 0 {
		return out[:i]
	}
	return out
}

// TestCacheSecondRunFullHits is the CLI acceptance test for incremental
// suites: the same -all -cache invocation twice must report 0% then
// 100% hits, with a byte-identical suite report.
func TestCacheSecondRunFullHits(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	var cold, warm, errb bytes.Buffer
	if code := run([]string{"-all", "-j", "4", "-cache", dir}, &cold, &errb); code != 0 {
		t.Fatalf("cold exit = %d, stderr = %s", code, errb.String())
	}
	if code := run([]string{"-all", "-j", "4", "-cache", dir}, &warm, &errb); code != 0 {
		t.Fatalf("warm exit = %d, stderr = %s", code, errb.String())
	}
	if !strings.Contains(cold.String(), "result cache: 0/20 campaigns replayed (0.0% hits)") {
		t.Errorf("cold run cache section:\n%s", cold.String())
	}
	if !strings.Contains(warm.String(), "result cache: 20/20 campaigns replayed (100.0% hits)") {
		t.Errorf("warm run cache section:\n%s", warm.String())
	}
	if suiteReport(cold.String()) != suiteReport(warm.String()) {
		t.Error("suite report differs between cold and warm cache runs")
	}
}

// TestOldCampaignTreeIsIgnored points a cached run at a store holding
// only the per-file layout stores used before segment logs, every
// entry at campaigns/<fp[:2]>/<fp>.json. Nothing replays from it: the
// suite re-runs, exports byte-identical findings, and writes segments
// that the next run replays in full.
func TestOldCampaignTreeIsIgnored(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	fresh := filepath.Join(dir, "fresh")
	want := exportFindings(t, dir, "want.json", "-all", "-j", "4", "-cache", fresh)

	// Lay the fresh store's entries out as the old tree: each segment
	// record's body is exactly the file the old layout kept.
	old := filepath.Join(dir, "old")
	segs, err := filepath.Glob(filepath.Join(fresh, "segments", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("fresh store segments = %v, %v", segs, err)
	}
	entries := 0
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range bytes.Split(b, []byte{0x1e})[1:] {
			hdr, body, _ := bytes.Cut(rec, []byte("\n"))
			fp := string(hdr[:64])
			path := filepath.Join(old, "campaigns", fp[:2], fp+".json")
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
			entries++
		}
	}
	if entries != 40 {
		t.Fatalf("fresh store holds %d entries, want 40 (plan and source address per job)", entries)
	}

	var out, errb bytes.Buffer
	path := filepath.Join(dir, "got.json")
	if code := run([]string{"-all", "-j", "4", "-cache", old, "-findings", path}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "result cache: 0/20 campaigns replayed (0.0% hits)") {
		t.Errorf("a store with only the old tree replayed entries:\n%s", out.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("findings export after re-running diverges from the fresh store's")
	}
	out.Reset()
	if code := run([]string{"-all", "-j", "4", "-cache", old}, &out, &errb); code != 0 {
		t.Fatalf("warm exit = %d, stderr = %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "result cache: 20/20 campaigns replayed (100.0% hits)") {
		t.Errorf("the re-run's segments do not replay:\n%s", out.String())
	}
}

// TestShardMergeMatchesAll is the CLI acceptance test for sharding: run
// the suite as two shards, merge, and demand the merged report equal an
// unsharded -all report byte for byte (up to the trailing merged-shard
// section).
func TestShardMergeMatchesAll(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	var full, s1, s2, merged, errb bytes.Buffer
	if code := run([]string{"-all", "-j", "4"}, &full, &errb); code != 0 {
		t.Fatalf("-all exit = %d, stderr = %s", code, errb.String())
	}
	if code := run([]string{"-all", "-j", "4", "-shard", "1/2", "-cache", dir}, &s1, &errb); code != 0 {
		t.Fatalf("shard 1/2 exit = %d, stderr = %s", code, errb.String())
	}
	if code := run([]string{"-all", "-j", "4", "-shard", "2/2", "-cache", dir}, &s2, &errb); code != 0 {
		t.Fatalf("shard 2/2 exit = %d, stderr = %s", code, errb.String())
	}
	for _, out := range []*bytes.Buffer{&s1, &s2} {
		if !strings.Contains(out.String(), "wrote 10 job(s)") {
			t.Errorf("shard output missing artifact confirmation:\n%s", out.String())
		}
	}
	if code := run([]string{"-merge", dir}, &merged, &errb); code != 0 {
		t.Fatalf("-merge exit = %d, stderr = %s", code, errb.String())
	}
	got := merged.String()
	i := strings.Index(got, "merged from")
	if i < 0 {
		t.Fatalf("merge output missing the merged-shard section:\n%s", got)
	}
	if !strings.Contains(got[i:], "2 shard artifact(s), 20 jobs") {
		t.Errorf("merged-shard section:\n%s", got[i:])
	}
	// Strip the section and its separating blank line.
	if want := full.String(); strings.TrimSuffix(got[:i], "\n") != want {
		t.Errorf("merged report differs from -all:\n--- all ---\n%s\n--- merged ---\n%s", want, got[:i])
	}
}

// TestMergeEmptyStoreFails pins the merge error path.
func TestMergeEmptyStoreFails(t *testing.T) {
	t.Parallel()
	var out, errb bytes.Buffer
	if code := run([]string{"-merge", t.TempDir()}, &out, &errb); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "no shard artifacts") {
		t.Errorf("stderr = %q", errb.String())
	}
}

// TestShardFlagValidation pins the flag-combination and input-validation
// errors of local suite runs. The cache directory is a temp dir because
// the shard-spec errors are detected after the store opens — a literal
// name would leave a stray store skeleton in the working tree.
func TestShardFlagValidation(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cases := map[string]struct {
		args []string
		want string
	}{
		"shard without all":   {[]string{"-shard", "1/2", "-cache", dir}, "require -all"},
		"cache without all":   {[]string{"-campaign", "turnin", "-cache", dir}, "require -all"},
		"shard without cache": {[]string{"-all", "-shard", "1/2"}, "-shard needs -cache DIR"},
		"malformed shard":     {[]string{"-all", "-shard", "2", "-cache", dir}, `malformed shard "2"`},
		"out-of-range shard":  {[]string{"-all", "-shard", "3/2", "-cache", dir}, "out of range"},
		"merge with all":      {[]string{"-merge", dir, "-all"}, "-merge runs alone"},
		"merge with cache":    {[]string{"-merge", dir, "-cache", dir}, "-merge runs alone"},
		"merge with list":     {[]string{"-merge", dir, "-list"}, "-merge runs alone"},
		"j zero":              {[]string{"-all", "-j", "0"}, "-j 0 is not a worker count"},
		"j negative":          {[]string{"-campaign", "turnin", "-j", "-3"}, "-j -3 is not a worker count"},
	}
	for name, tc := range cases {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%s: exit = %d, want 2 (stderr %q)", name, code, errb.String())
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%s: stderr %q missing %q", name, errb.String(), tc.want)
		}
	}
}
