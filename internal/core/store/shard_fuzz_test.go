package store

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core/inject"
	"repro/internal/core/sched"
)

// FuzzMergeShards writes two arbitrary byte strings as the sibling
// artifacts shard-1-of-2 and shard-2-of-2 and merges them. MergeShards
// must never panic, and it must either reject the pair or return a
// suite in which every job index of the catalog is filled exactly once,
// by the job the catalog names there.
func FuzzMergeShards(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	catalog := []string{"lpr/vulnerable", "lpr/fixed", "turnin/vulnerable"}
	jobs := []sched.Job{{Name: "lpr", Variant: "vulnerable"}, {Name: "lpr", Variant: "fixed"}, {Name: "turnin", Variant: "vulnerable"}}
	artifact := func(k int) []byte {
		spec := sched.ShardSpec{K: k, N: 2}
		_, indices := sched.ShardJobs(jobs, spec)
		sr := &sched.SuiteResult{}
		for _, i := range indices {
			sr.Campaigns = append(sr.Campaigns, sched.CampaignResult{
				Job:         jobs[i],
				Fingerprint: "fp",
				Result: &inject.Result{
					Campaign:   jobs[i].Name,
					TotalSites: []string{"a:open"},
					Injections: []inject.Injection{{Point: "a:open#0", Site: "a:open", FaultID: "direct/file/existence"}},
				},
			})
		}
		if err := s.WriteShard(spec, catalog, indices, sr); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(s.shardPath(spec))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	a, b := artifact(1), artifact(2)
	f.Add(a, b)
	f.Add(a, a)
	f.Add(a, []byte{})
	f.Add(a, bytes.Replace(b, []byte(`"index":1`), []byte(`"index":0`), 1))
	f.Add(a, bytes.Replace(b, []byte(`"index":1`), []byte(`"index":7`), 1))
	f.Add(a, bytes.Replace(b, []byte(`"lpr/fixed"`), []byte(`"lpr/other"`), 1))
	f.Add(bytes.Replace(a, []byte(`"of":2`), []byte(`"of":1`), 1), []byte("{}"))

	f.Fuzz(func(t *testing.T, first, second []byte) { checkMerge(t, s, first, second) })
}

// checkMerge writes the pair as shards 1 and 2 of 2 and checks
// MergeShards' verdict on them.
func checkMerge(t *testing.T, s *Store, first, second []byte) {
	t.Helper()
	for k, data := range [][]byte{first, second} {
		if err := os.WriteFile(s.shardPath(sched.ShardSpec{K: k + 1, N: 2}), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sr, infos, err := s.MergeShards()
	if err != nil {
		return
	}
	// Accepted: count each index over the artifacts as written.
	var cat []string
	filled := map[int]int{}
	total := 0
	for _, data := range [][]byte{first, second} {
		var sf shardFile
		if json.Unmarshal(data, &sf) != nil {
			t.Fatalf("merge accepted an artifact that does not parse")
		}
		cat = sf.Catalog
		for _, j := range sf.Jobs {
			filled[j.Index]++
			total++
		}
	}
	if len(sr.Campaigns) != len(cat) || total != len(cat) {
		t.Fatalf("merged %d campaigns from %d job records over a %d-job catalog", len(sr.Campaigns), total, len(cat))
	}
	jobs := 0
	for _, in := range infos {
		jobs += in.Jobs
	}
	if jobs != total {
		t.Fatalf("shard infos count %d jobs, the artifacts hold %d", jobs, total)
	}
	for i, c := range sr.Campaigns {
		if filled[i] != 1 {
			t.Fatalf("job index %d filled %d times", i, filled[i])
		}
		if c.Job.Label() != cat[i] {
			t.Fatalf("job index %d holds %q, the catalog names %q", i, c.Job.Label(), cat[i])
		}
		if c.Result != nil {
			if _, err := EncodeResult(c.Result); err != nil {
				t.Fatalf("merged result %d does not re-encode: %v", i, err)
			}
		}
	}
}
