package store_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core/report"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// labels returns the catalog label list WriteShard records.
func labels(jobs []sched.Job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.Label()
	}
	return out
}

// TestShardMergeReproducesUnshardedSuite is the acceptance test for the
// shard pipeline: partition the full catalog into n shards, run each in
// its own suite (as n processes would), merge the artifacts, and demand
// the merged SuiteResult match the unsharded run exactly — same labels,
// same order, byte-identical per-campaign encodings, byte-identical
// rendered reports.
func TestShardMergeReproducesUnshardedSuite(t *testing.T) {
	t.Parallel()
	jobs := apps.SuiteJobs()
	full := sched.RunSuite(jobs, sched.SuiteOptions{Workers: 4})

	for _, n := range []int{2, 3} {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= n; k++ {
			spec := sched.ShardSpec{K: k, N: n}
			shardJobs, indices := sched.ShardJobs(jobs, spec)
			sr := sched.RunSuite(shardJobs, sched.SuiteOptions{Workers: 4})
			if err := st.WriteShard(spec, labels(jobs), indices, sr); err != nil {
				t.Fatalf("n=%d: write shard %s: %v", n, spec, err)
			}
		}
		merged, infos, err := store.MergeShards(st.Dir())
		if err != nil {
			t.Fatalf("n=%d: merge: %v", n, err)
		}
		if len(infos) != n {
			t.Fatalf("n=%d: merged %d artifacts", n, len(infos))
		}
		if len(merged.Campaigns) != len(full.Campaigns) {
			t.Fatalf("n=%d: merged %d campaigns, want %d", n, len(merged.Campaigns), len(full.Campaigns))
		}
		for i := range full.Campaigns {
			want, got := full.Campaigns[i], merged.Campaigns[i]
			if want.Job.Label() != got.Job.Label() {
				t.Fatalf("n=%d: campaign %d is %s, want %s", n, i, got.Job.Label(), want.Job.Label())
			}
			wb, err := store.EncodeResult(want.Result)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := store.EncodeResult(got.Result)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wb, gb) {
				t.Errorf("n=%d: %s: merged result diverges from unsharded run", n, want.Job.Label())
			}
		}
		// The user-visible contract: the merged suite report and the
		// clustered findings render byte-identically.
		if report.SuiteRun(merged) != report.SuiteRun(full) {
			t.Errorf("n=%d: merged suite report diverges", n)
		}
		wantClusters := report.Clusters(sched.ClusterSuite(full))
		gotClusters := report.Clusters(sched.ClusterSuite(merged))
		if wantClusters != gotClusters {
			t.Errorf("n=%d: merged cluster report diverges", n)
		}
	}
}

// TestMergeRejectsIncompletePartition asserts a missing sibling is a
// loud error naming the uncovered indices, never a partial report.
func TestMergeRejectsIncompletePartition(t *testing.T) {
	t.Parallel()
	jobs := apps.SuiteJobs()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := sched.ShardSpec{K: 1, N: 2}
	shardJobs, indices := sched.ShardJobs(jobs, spec)
	sr := sched.RunSuite(shardJobs, sched.SuiteOptions{Workers: 4})
	if err := st.WriteShard(spec, labels(jobs), indices, sr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.MergeShards(st.Dir()); err == nil {
		t.Fatal("merging half a partition succeeded")
	} else if !strings.Contains(err.Error(), "incomplete partition") {
		t.Errorf("error = %v, want it to name the incomplete partition", err)
	}
}

// TestMergeRejectsMixedPartitions asserts artifacts from differently
// sized partitions cannot be combined.
func TestMergeRejectsMixedPartitions(t *testing.T) {
	t.Parallel()
	jobs := apps.SuiteJobs()[:2]
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	whole := sched.RunSuite(jobs, sched.SuiteOptions{Workers: 2})
	if err := st.WriteShard(sched.ShardSpec{K: 1, N: 1}, labels(jobs), []int{0, 1}, whole); err != nil {
		t.Fatal(err)
	}
	spec := sched.ShardSpec{K: 1, N: 2}
	shardJobs, indices := sched.ShardJobs(jobs, spec)
	sr := sched.RunSuite(shardJobs, sched.SuiteOptions{Workers: 2})
	if err := st.WriteShard(spec, labels(jobs), indices, sr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.MergeShards(st.Dir()); err == nil {
		t.Fatal("merging mixed partitions succeeded")
	}
}

// TestMergeRejectsMixedCatalogs asserts two shards produced from
// differently labelled catalogs — a rename between shard runs — cannot
// be spliced into one report.
func TestMergeRejectsMixedCatalogs(t *testing.T) {
	t.Parallel()
	jobs := apps.SuiteJobs()[:2]
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 2; k++ {
		spec := sched.ShardSpec{K: k, N: 2}
		shardJobs, indices := sched.ShardJobs(jobs, spec)
		sr := sched.RunSuite(shardJobs, sched.SuiteOptions{Workers: 2})
		cat := labels(jobs)
		if k == 2 {
			cat[0] = "renamed/vulnerable" // the catalog drifted between runs
		}
		if err := st.WriteShard(spec, cat, indices, sr); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := store.MergeShards(st.Dir()); err == nil {
		t.Fatal("merging shards from different catalogs succeeded")
	} else if !strings.Contains(err.Error(), "catalog") {
		t.Errorf("error = %v, want it to blame the catalog", err)
	}
}

// TestMergeRejectsEmptyStore asserts the no-artifacts case is an error.
func TestMergeRejectsEmptyStore(t *testing.T) {
	t.Parallel()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.MergeShards(st.Dir()); err == nil {
		t.Error("merging an empty store succeeded")
	}
}
