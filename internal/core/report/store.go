package report

import (
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// CacheStats renders the result-cache section of a suite run under
// `-cache`: the hit ratio, which campaigns replayed from the store, and
// any failed write-backs. It is printed after the suite report proper so
// the report stays byte-identical between cold and warm runs.
func CacheStats(sr *sched.SuiteResult) string {
	var b strings.Builder
	hits, total := sr.CacheHits(), len(sr.Campaigns)
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(hits) / float64(total)
	}
	fmt.Fprintf(&b, "result cache: %d/%d campaigns replayed (%.1f%% hits)\n", hits, total, pct)
	sourceHits := false
	writeBackFailures := 0
	for _, c := range sr.Campaigns {
		switch {
		case c.CachedSource:
			// A source-level hit never planned, so the plan fingerprint
			// is unknown; show the source address that matched.
			sourceHits = true
			fmt.Fprintf(&b, "  %-24s hit*  %s\n", c.Job.Label(), short(c.SourceFingerprint))
		case c.Cached:
			fmt.Fprintf(&b, "  %-24s hit   %s\n", c.Job.Label(), short(c.Fingerprint))
		case c.Err != nil:
			fmt.Fprintf(&b, "  %-24s skip  (campaign failed)\n", c.Job.Label())
		default:
			fmt.Fprintf(&b, "  %-24s miss  %s\n", c.Job.Label(), short(c.Fingerprint))
		}
		if c.CacheErr != nil {
			writeBackFailures++
			fmt.Fprintf(&b, "  %-24s       write-back failed: %v\n", "", c.CacheErr)
		}
	}
	if sourceHits {
		b.WriteString("  (* source-fingerprint hit: clean run skipped too)\n")
	}
	if writeBackFailures > 0 {
		fmt.Fprintf(&b, "  WARNING: %d campaign write-back(s) failed — results were NOT cached (flaky, mismatched, or unauthorized cache server?)\n", writeBackFailures)
	}
	return b.String()
}

// MergedShards renders the merged-shard section of an `eptest -merge`
// run: which artifacts the combined report above was assembled from.
func MergedShards(infos []store.ShardInfo) string {
	var b strings.Builder
	jobs := 0
	for _, in := range infos {
		jobs += in.Jobs
	}
	fmt.Fprintf(&b, "merged from %d shard artifact(s), %d jobs\n", len(infos), jobs)
	for _, in := range infos {
		fmt.Fprintf(&b, "  shard %d/%d  %3d job(s)  %s\n", in.Shard, in.Of, in.Jobs, filepath.Base(in.Path))
	}
	return b.String()
}

// short abbreviates a fingerprint for display.
func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}
