package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// goldenUpdate regenerates the committed golden reports instead of
// diffing against them:
//
//	go test ./cmd/eptest -run TestGolden -golden-update
//
// Regenerate only for a deliberate, reviewed output change (a new
// catalog entry, a new fault, a report-format change) — the whole
// point of the goldens is that nothing else moves these bytes.
var goldenUpdate = flag.Bool("golden-update", false, "rewrite the golden suite reports")

// golden runs eptest with args and compares its stdout byte-for-byte
// against the committed golden file. The suite report is deterministic
// by construction — campaign plans come from fixed worlds, the
// dispatcher assembles results in plan order, and no section carries
// wall-clock or per-worker data — so a single byte of drift means the
// engine, a campaign, the catalog order, or the report format changed.
func golden(t *testing.T, name string, args ...string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	if code != 0 && code != 1 {
		// Exit 1 is expected: the suites include vulnerable variants,
		// so violations — and a campaign-failure exit — must be told
		// apart by stderr, which stays empty on a healthy run.
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	if errb.Len() != 0 {
		t.Fatalf("stderr not empty: %s", errb.String())
	}
	path := filepath.Join("testdata", "golden", name)
	if *goldenUpdate {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, out.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -golden-update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("%s drifted from golden %s.\nIf the change is deliberate, rerun with -golden-update and review the diff.\n--- got ---\n%s", args, path, out.String())
	}
}

// TestGoldenSuiteReport pins the full base-catalog suite report — the
// byte-identical-to-sequential invariant, guarded end to end through
// the real CLI path.
func TestGoldenSuiteReport(t *testing.T) {
	t.Parallel()
	golden(t, "suite-base.txt", "-all", "-j", "4")
}

// TestGoldenMatrixSlice pins a small matrix slice: every lpr cell
// (option sweeps, site cuts, both program variants) plus one
// multi-site composition, with the per-axis rollup.
func TestGoldenMatrixSlice(t *testing.T) {
	t.Parallel()
	golden(t, "suite-matrix-lpr.txt", "-all", "-matrix", "-filter", "lpr/*", "-j", "4")
	golden(t, "suite-matrix-pair.txt", "-all", "-matrix", "-filter", "turnin+untar/*", "-j", "4")
}

// TestGoldenWorkerCountInvariance re-renders the base golden at a
// different worker count: scheduling must never move a byte. Under
// -golden-update it skips — TestGoldenSuiteReport owns the file, and
// two parallel writers on one path would race.
func TestGoldenWorkerCountInvariance(t *testing.T) {
	t.Parallel()
	if *goldenUpdate {
		t.Skip("suite-base.txt is regenerated by TestGoldenSuiteReport")
	}
	golden(t, "suite-base.txt", "-all", "-j", "13")
}
