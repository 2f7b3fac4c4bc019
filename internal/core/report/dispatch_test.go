package report

import (
	"strings"
	"testing"

	"repro/internal/core/sched"
)

func TestDispatchRendering(t *testing.T) {
	t.Parallel()
	sr := scheduledSuite()
	sr.Dispatch = sched.DispatchStats{
		Workers: 2,
		Plans:   3,
		Runs:    45,
		Shared:  12,
		Steals:  7,
		PerWorker: []sched.WorkerStats{
			{Plans: 2, Runs: 40, Shared: 12, Steals: 0},
			{Plans: 1, Runs: 5, Steals: 7},
		},
	}
	out := Dispatch(sr)
	for _, want := range []string{
		"dispatcher: 2 worker(s), 3 campaign(s) planned, 45 run(s) executed, 7 steal(s), 12 run(s) shared",
		"worker 0", "worker 1", "40 run(s)", "7 steal(s)", "12 shared",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dispatch section missing %q:\n%s", want, out)
		}
	}
}

// TestCacheStatsSourceHits pins the source-level hit rendering: the
// starred marker, the source fingerprint in place of the (unknown)
// plan fingerprint, and the legend line.
func TestCacheStatsSourceHits(t *testing.T) {
	t.Parallel()
	sr := scheduledSuite()
	sr.Campaigns[0].Cached = true
	sr.Campaigns[0].CachedSource = true
	sr.Campaigns[0].SourceFingerprint = strings.Repeat("ab", 32)
	sr.Campaigns[1].Cached = true
	sr.Campaigns[1].Fingerprint = strings.Repeat("cd", 32)
	out := CacheStats(sr)
	for _, want := range []string{
		"result cache: 2/3 campaigns replayed",
		"hit*  abababababab",
		"hit   cdcdcdcdcdcd",
		"(* source-fingerprint hit: clean run skipped too)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cache section missing %q:\n%s", want, out)
		}
	}

	// Without source hits the legend stays out, keeping PR 2 output
	// byte-stable for sourceless suites.
	sr.Campaigns[0].CachedSource = false
	sr.Campaigns[0].Fingerprint = strings.Repeat("ef", 32)
	if out := CacheStats(sr); strings.Contains(out, "source-fingerprint") {
		t.Errorf("legend printed without source hits:\n%s", out)
	}
}
