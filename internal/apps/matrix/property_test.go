package matrix_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/apps/matrix"
	"repro/internal/core/report"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// propertyJobs is the bounded matrix slice the equivalence properties
// run over: every cell of two solo apps and one composition — option
// sweeps, site cuts and both program variants included — small enough
// for -race, wide enough to cross every axis.
func propertyJobs(t *testing.T) []sched.Job {
	t.Helper()
	var jobs []sched.Job
	for _, pattern := range []string{"lpr/*", "untar/*", "lpr+turnin/*"} {
		sel := sched.FilterJobs(matrix.SuiteJobs(), pattern)
		if len(sel) == 0 {
			t.Fatalf("matrix slice %q is empty", pattern)
		}
		jobs = append(jobs, sel...)
	}
	return jobs
}

// renderSuite renders the full deterministic report surface for
// equivalence comparison: the summary table plus the clustered
// findings plus the per-axis matrix rollup.
func renderSuite(sr *sched.SuiteResult) string {
	return report.SuiteRun(sr) + "\n" + report.Clusters(sched.ClusterSuite(sr)) + "\n" + report.Matrix(sr)
}

// TestMatrixShardMergeEquivalence is the partition property: for
// n = 2, 3, 5, running the matrix slice as n independent sharded
// processes and merging the artifacts must reproduce the unsharded
// suite report byte for byte.
func TestMatrixShardMergeEquivalence(t *testing.T) {
	t.Parallel()
	jobs := propertyJobs(t)
	catalog := make([]string, len(jobs))
	for i, j := range jobs {
		catalog[i] = j.Label()
	}
	want := renderSuite(sched.RunSuite(jobs, sched.SuiteOptions{Workers: 4}))

	for _, n := range []int{2, 3, 5} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= n; k++ {
				spec := sched.ShardSpec{K: k, N: n}
				shardJobs, indices := sched.ShardJobs(jobs, spec)
				sr := sched.RunSuite(shardJobs, sched.SuiteOptions{Workers: 4, Cache: st})
				if len(sr.Failed()) != 0 {
					t.Fatalf("shard %s failed: %v", spec, sr.Failed())
				}
				if err := st.WriteShard(spec, catalog, indices, sr); err != nil {
					t.Fatal(err)
				}
			}
			merged, infos, err := store.MergeShards(st.Dir())
			if err != nil {
				t.Fatal(err)
			}
			if len(infos) != n {
				t.Fatalf("merged %d artifacts, want %d", len(infos), n)
			}
			if got := renderSuite(merged); got != want {
				t.Errorf("merged report diverges from unsharded run:\n--- merged ---\n%s\n--- unsharded ---\n%s", got, want)
			}
		})
	}
}

// TestMatrixWarmCacheEquivalence is the replay property: a second run
// against the same store must replay every cell from the cache — every
// one a source-level hit — and render the byte-identical report.
func TestMatrixWarmCacheEquivalence(t *testing.T) {
	t.Parallel()
	jobs := propertyJobs(t)
	st, err := store.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cold := sched.RunSuite(jobs, sched.SuiteOptions{Workers: 4, Cache: st})
	if len(cold.Failed()) != 0 {
		t.Fatalf("cold run failed: %v", cold.Failed())
	}
	if hits := cold.CacheHits(); hits != 0 {
		t.Fatalf("cold run replayed %d campaigns from an empty store", hits)
	}
	for _, c := range cold.Campaigns {
		if c.CacheErr != nil {
			t.Fatalf("%s: cache write-back failed: %v", c.Job.Label(), c.CacheErr)
		}
	}

	warm := sched.RunSuite(jobs, sched.SuiteOptions{Workers: 4, Cache: st})
	if hits := warm.CacheHits(); hits != len(jobs) {
		t.Fatalf("warm run replayed %d/%d campaigns; every matrix cell must cache independently", hits, len(jobs))
	}
	for _, c := range warm.Campaigns {
		if !c.CachedSource {
			t.Errorf("%s replayed from the plan fingerprint only; source stamp missing", c.Job.Label())
		}
	}
	if got, want := renderSuite(warm), renderSuite(cold); got != want {
		t.Errorf("warm report diverges from cold run")
	}
}

// TestMatrixFingerprintsDistinct is the cache-independence property:
// across the matrix slice, no two cells share a plan or source
// fingerprint (distinct cells must never alias one store entry).
func TestMatrixFingerprintsDistinct(t *testing.T) {
	t.Parallel()
	jobs := propertyJobs(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sr := sched.RunSuite(jobs, sched.SuiteOptions{Workers: 4, Cache: st})
	plan := map[string]string{}
	source := map[string]string{}
	for _, c := range sr.Campaigns {
		if c.Err != nil {
			t.Fatalf("%s: %v", c.Job.Label(), c.Err)
		}
		if c.Fingerprint == "" || c.SourceFingerprint == "" {
			t.Fatalf("%s: missing fingerprint (plan %q, source %q)", c.Job.Label(), c.Fingerprint, c.SourceFingerprint)
		}
		if prev, dup := plan[c.Fingerprint]; dup {
			t.Errorf("cells %s and %s share plan fingerprint", prev, c.Job.Label())
		}
		if prev, dup := source[c.SourceFingerprint]; dup {
			t.Errorf("cells %s and %s share source fingerprint", prev, c.Job.Label())
		}
		plan[c.Fingerprint] = c.Job.Label()
		source[c.SourceFingerprint] = c.Job.Label()
	}
}
