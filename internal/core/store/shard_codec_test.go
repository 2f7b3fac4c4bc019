package store

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"repro/internal/core/inject"
	"repro/internal/core/policy"
	"repro/internal/core/sched"
)

// checkShard holds encodeShard to the encoding/json reference for one
// artifact.
func checkShard(t *testing.T, what string, sp sched.ShardSpec, catalog []string, indices []int, sr *sched.SuiteResult) {
	t.Helper()
	want, err := referenceEncodeShard(sp, catalog, indices, sr)
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	if got := encodeShard(sp, catalog, indices, sr); !bytes.Equal(got, want) {
		t.Fatalf("%s: shard artifact diverges from json.Marshal at byte %d", what, firstDiff(got, want))
	}
}

// catalogLabels returns the labels of sr's campaigns, in order.
func catalogLabels(sr *sched.SuiteResult) []string {
	out := make([]string, len(sr.Campaigns))
	for i, c := range sr.Campaigns {
		out[i] = c.Job.Label()
	}
	return out
}

// TestShardMatchesReferenceOnCatalog writes the base catalog and the
// matrix as one whole artifact and as every shard of a 3-way partition,
// and demands json.Marshal's bytes each time. The whole matrix goes
// through WriteShard too, so the file on disk is checked as well.
func TestShardMatchesReferenceOnCatalog(t *testing.T) {
	t.Parallel()
	srs, _ := catalogRuns()
	for _, sr := range srs {
		catalog := catalogLabels(sr)
		all := make([]int, len(catalog))
		for i := range all {
			all[i] = i
		}
		checkShard(t, "1/1", sched.ShardSpec{K: 1, N: 1}, catalog, all, sr)
		for k := 1; k <= 3; k++ {
			sp := sched.ShardSpec{K: k, N: 3}
			part := &sched.SuiteResult{}
			var indices []int
			for i := k - 1; i < len(sr.Campaigns); i += 3 {
				part.Campaigns = append(part.Campaigns, sr.Campaigns[i])
				indices = append(indices, i)
			}
			checkShard(t, sp.String(), sp, catalog, indices, part)
		}
	}

	sr := srs[len(srs)-1]
	catalog := catalogLabels(sr)
	all := make([]int, len(catalog))
	for i := range all {
		all[i] = i
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp := sched.ShardSpec{K: 1, N: 1}
	if err := st.WriteShard(sp, catalog, all, sr); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(shardPath(st.Dir(), sp))
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceEncodeShard(sp, catalog, all, sr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WriteShard's file diverges from json.Marshal at byte %d", firstDiff(got, want))
	}
}

// TestShardMatchesReferenceOnEdges covers what the catalog never
// produces: failed campaigns (with and without a message), the cached
// flags, an empty variant, strings Marshal escapes, a nil catalog and
// an empty shard.
func TestShardMatchesReferenceOnEdges(t *testing.T) {
	t.Parallel()
	res := &inject.Result{
		Campaign:   "c<&> ",
		TotalSites: []string{},
		Injections: []inject.Injection{{Point: "p", Violations: []policy.Violation{{Detail: "\xff"}}}},
	}
	fp := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	sr := &sched.SuiteResult{Campaigns: []sched.CampaignResult{
		{Job: sched.Job{Name: "failed", Variant: "v"}, Err: errors.New(`plan: "x" <failed> & \xff`)},
		{Job: sched.Job{Name: "silent"}, Err: errors.New("")},
		{Job: sched.Job{Name: "hit", Variant: "fixed"}, Fingerprint: fp, SourceFingerprint: fp, Cached: true, CachedSource: true, Result: res},
		{Job: sched.Job{Name: "plan-hit"}, Fingerprint: fp, Cached: true, Result: res},
		{Job: sched.Job{Name: "bare"}, Result: &inject.Result{}},
	}}
	catalog := []string{"failed/v", "silent", "hit/fixed", "plan-hit", "bare", "x "}
	checkShard(t, "edges", sched.ShardSpec{K: 2, N: 7}, catalog, []int{5, 0, 1, 2, 3}, sr)
	checkShard(t, "nil catalog", sched.ShardSpec{K: 1, N: 1}, nil, []int{0, 1, 2, 3, 4}, sr)
	checkShard(t, "empty shard", sched.ShardSpec{K: 3, N: 3}, catalog, nil, &sched.SuiteResult{})
	checkShard(t, "empty catalog", sched.ShardSpec{K: 1, N: 1}, []string{}, []int{}, &sched.SuiteResult{Campaigns: []sched.CampaignResult{}})
}

// FuzzEncodeShard holds encodeShard to json.Marshal on fuzzed strings,
// partition coordinates, indices and flags.
func FuzzEncodeShard(f *testing.F) {
	f.Add("lpr", "vulnerable", "", "lpr/vulnerable", 1, 1, 0, false, false, true)
	f.Add("a<b", "", "boom \xff ", "", 2, 3, 7, true, true, false)
	f.Add("", "\x00\"\\", "&", " ", -1, 0, -5, false, true, true)
	f.Fuzz(func(t *testing.T, name, variant, errMsg, label string, k, n, index int, cached, cachedSource, withResult bool) {
		c := sched.CampaignResult{
			Job:               sched.Job{Name: name, Variant: variant},
			Fingerprint:       label,
			SourceFingerprint: variant,
			Cached:            cached,
			CachedSource:      cachedSource,
		}
		if errMsg != "" {
			c.Err = errors.New(errMsg)
		}
		if withResult {
			c.Result = &inject.Result{Campaign: name, TotalSites: []string{label}, PerturbedSites: []string{errMsg}}
		}
		sr := &sched.SuiteResult{Campaigns: []sched.CampaignResult{c, c}}
		checkShard(t, "fuzz", sched.ShardSpec{K: k, N: n}, []string{label, name}, []int{index, -index}, sr)
	})
}
