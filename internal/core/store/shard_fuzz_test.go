package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core/inject"
	"repro/internal/core/sched"
)

// mergeFixture returns a store and the two artifacts, shard-1-of-2
// and shard-2-of-2, of a three-job catalog, as WriteShard writes them.
func mergeFixture(tb testing.TB) (s *Store, first, second []byte) {
	tb.Helper()
	s, err := Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
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
			tb.Fatal(err)
		}
		b, err := os.ReadFile(shardPath(s.Dir(), spec))
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	return s, artifact(1), artifact(2)
}

// FuzzMergeShards writes two arbitrary byte strings as the sibling
// artifacts shard-1-of-2 and shard-2-of-2 and merges them. MergeShards
// must never panic, and it must either reject the pair or return the
// suite the encoding/json reference reads from them, in which every
// job index of the catalog is filled exactly once, by the job the
// catalog names there.
func FuzzMergeShards(f *testing.F) {
	s, a, b := mergeFixture(f)
	f.Add(a, b)
	f.Add(a, a)
	f.Add(a, []byte{})
	f.Add(a, bytes.Replace(b, []byte(`"index":1`), []byte(`"index":0`), 1))
	f.Add(a, bytes.Replace(b, []byte(`"index":1`), []byte(`"index":7`), 1))
	f.Add(a, bytes.Replace(b, []byte(`"lpr/fixed"`), []byte(`"lpr/other"`), 1))
	f.Add(bytes.Replace(a, []byte(`"of":2`), []byte(`"of":1`), 1), []byte("{}"))
	for _, bad := range badCoordinates(b) {
		f.Add(a, bad)
	}
	f.Add(a, bytes.Replace(b, []byte(`"a:open"]`), []byte(`"a:open\ufffd"]`), 1))
	// Shard 2 as a version-1 store wrote it, with a clean trace, and
	// with only the clean trace of version 1.
	v1Trace := bytes.ReplaceAll(b, []byte(`,"total_sites"`), []byte(`,"clean_trace":[],"total_sites"`))
	f.Add(a, v1Trace)
	f.Add(a, bytes.Replace(v1Trace, []byte(FormatVersion), []byte("eptest-store/1"), 1))

	f.Fuzz(func(t *testing.T, first, second []byte) { checkMerge(t, s, first, second) })
}

// badCoordinates returns copies of shard-2-of-2's artifact b whose
// shard coordinates are impossible, or possible but not the file's.
func badCoordinates(b []byte) map[string][]byte {
	swap := func(old, new string) []byte { return bytes.Replace(b, []byte(old), []byte(new), 1) }
	return map[string][]byte{
		"shard beyond of": swap(`"shard":2`, `"shard":9`),
		"shard zero":      swap(`"shard":2`, `"shard":0`),
		"negative shard":  swap(`"shard":2`, `"shard":-2`),
		"of zero":         swap(`"of":2`, `"of":0`),
		"negative of":     swap(`"of":2`, `"of":-2`),
		"another shard":   swap(`"shard":2`, `"shard":1`),
		"another of":      swap(`"of":2`, `"of":3`),
	}
}

// TestMergeChecksCoordinates pins that an artifact's shard coordinates
// must be a shard of a partition (1 <= shard <= of) and the ones its
// file is named after: each bad copy of shard 2 is rejected, naming
// the file, where the original merges.
func TestMergeChecksCoordinates(t *testing.T) {
	t.Parallel()
	s, a, b := mergeFixture(t)
	checkMerge(t, s, a, b)
	if _, _, err := MergeShards(s.Dir()); err != nil {
		t.Fatalf("the fixture does not merge: %v", err)
	}
	for name, bad := range badCoordinates(b) {
		checkMerge(t, s, a, bad)
		_, _, err := MergeShards(s.Dir())
		if err == nil {
			t.Errorf("%s: merged", name)
		} else if !strings.Contains(err.Error(), "shard-2-of-2.json") {
			t.Errorf("%s: error %q does not name the artifact", name, err)
		}
	}
}

// TestMergeNamesJobWithInvalidUTF8 pins that a result holding invalid
// UTF-8, which WriteShard writes as the \ufffd escape, fails the merge
// and names the job, rather than merging with U+FFFD in its place.
func TestMergeNamesJobWithInvalidUTF8(t *testing.T) {
	t.Parallel()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sr := &sched.SuiteResult{Campaigns: []sched.CampaignResult{
		{Job: sched.Job{Name: "ok"}, Result: &inject.Result{Campaign: "ok"}},
		{Job: sched.Job{Name: "lpr", Variant: "fixed"}, Result: &inject.Result{Campaign: "lpr", TotalSites: []string{"lpr:open\xff"}}},
	}}
	if err := s.WriteShard(sched.ShardSpec{K: 1, N: 1}, []string{"ok", "lpr/fixed"}, []int{0, 1}, sr); err != nil {
		t.Fatal(err)
	}
	_, _, err = MergeShards(s.Dir())
	if err == nil || !strings.Contains(err.Error(), "job 1 (lpr/fixed)") {
		t.Fatalf("merge error = %v, want one naming job 1 (lpr/fixed)", err)
	}
}

// checkMerge writes the pair as shards 1 and 2 of 2 and checks
// MergeShards' verdict on them against the encoding/json reference.
func checkMerge(t *testing.T, s *Store, first, second []byte) {
	t.Helper()
	for k, data := range [][]byte{first, second} {
		if err := os.WriteFile(shardPath(s.Dir(), sched.ShardSpec{K: k + 1, N: 2}), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sr, infos, err := MergeShards(s.Dir())
	if err != nil {
		return
	}
	// Accepted: the reference reads each artifact, and its every job
	// is the merged campaign at the job's index.
	var cat []string
	filled := map[int]int{}
	total := 0
	for k, data := range [][]byte{first, second} {
		var sf shardFile
		if err := json.Unmarshal(data, &sf); err != nil {
			t.Fatalf("merge accepted an artifact the reference rejects: %v", err)
		}
		if sf.Store != FormatVersion || sf.Engine != inject.EngineVersion || sf.Shard != k+1 || sf.Of != 2 {
			t.Fatalf("merge accepted shard %d/%d of %s/%s from shard-%d-of-2.json", sf.Shard, sf.Of, sf.Store, sf.Engine, k+1)
		}
		cat = sf.Catalog
		for _, j := range sf.Jobs {
			filled[j.Index]++
			total++
			if j.Index < 0 || j.Index >= len(sr.Campaigns) {
				t.Fatalf("merge accepted job index %d of %d", j.Index, len(sr.Campaigns))
			}
			want := sched.CampaignResult{
				Job:               sched.Job{Name: j.Name, Variant: j.Variant},
				Fingerprint:       j.Fingerprint,
				SourceFingerprint: j.SourceFingerprint,
				Cached:            j.Cached,
				CachedSource:      j.CachedSource,
			}
			if j.Err != "" {
				want.Err = errors.New(j.Err)
			}
			if j.Result != nil {
				want.Result = fromWire(j.Result)
			}
			if got := sr.Campaigns[j.Index]; !reflect.DeepEqual(got, want) {
				t.Fatalf("job %d merged as %+v, the reference reads %+v", j.Index, got, want)
			}
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
	}
}
