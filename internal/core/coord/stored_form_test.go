package coord

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/matrix"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// TestStoredFormHoldsNoCleanTrace pins, for every result of the base
// catalog and the matrix, that none of the forms a result leaves its
// process in carries the clean trace: the canonical encoding, a cache
// entry, a shard artifact and a worker's completion body. Each decodes
// back to a result with a nil CleanTrace that equals the fresh result
// in every other field.
func TestStoredFormHoldsNoCleanTrace(t *testing.T) {
	t.Parallel()
	for _, sr := range catalogSuites() {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		catalog, indices := make([]string, len(sr.Campaigns)), make([]int, len(sr.Campaigns))
		for i, c := range sr.Campaigns {
			label := c.Job.Label()
			catalog[i], indices[i] = label, i
			fresh := c.Result
			if c.Err != nil || len(fresh.CleanTrace) == 0 {
				t.Fatalf("%s: err %v, or a fresh result without a clean trace", label, c.Err)
			}
			check := func(form string, b []byte, got *inject.Result, err error) {
				t.Helper()
				if bytes.Contains(b, []byte("clean_trace")) {
					t.Fatalf("%s: the %s holds a clean trace", label, form)
				}
				if err != nil {
					t.Fatalf("%s: the %s does not decode: %v", label, form, err)
				}
				if got.CleanTrace != nil || !sameStored(got, fresh) {
					t.Fatalf("%s: the %s decodes to a result other than the fresh one's stored fields", label, form)
				}
			}

			b, err := store.EncodeResult(fresh)
			if err != nil {
				t.Fatal(err)
			}
			res, err := store.DecodeResult(b)
			check("canonical encoding", b, res, err)

			// The entry's bytes are checked in the segments below.
			fp := fmt.Sprintf("%064x", i+1)
			if err := st.Put(fp, label, fresh); err != nil {
				t.Fatal(err)
			}
			res, ok := st.Get(fp)
			if !ok {
				t.Fatalf("%s: a miss after Put", label)
			}
			check("cache entry", nil, res, nil)

			o, err := store.OutcomeOf(&c)
			if err != nil {
				t.Fatal(err)
			}
			body := appendComplete(nil, &CompleteRequest{Proto: ProtocolVersion, WorkerID: "w1", Index: i, Outcome: o})
			_, res, err = decodeComplete(body)
			check("completion body", body, res, err)
		}
		segs, err := filepath.Glob(filepath.Join(st.Dir(), "segments", "*"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segment written (%v)", err)
		}
		for _, seg := range segs {
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(b, []byte("clean_trace")) {
				t.Fatalf("segment %s holds a clean trace", seg)
			}
		}

		spec := sched.ShardSpec{K: 1, N: 1}
		if err := st.WriteShard(spec, catalog, indices, sr); err != nil {
			t.Fatal(err)
		}
		artifact, err := os.ReadFile(filepath.Join(st.Dir(), "shards", "shard-1-of-1.json"))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(artifact, []byte("clean_trace")) {
			t.Fatal("the shard artifact holds a clean trace")
		}
		merged, _, err := store.MergeShards(st.Dir())
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range merged.Campaigns {
			if c.Result == nil || c.Result.CleanTrace != nil || !sameStored(c.Result, sr.Campaigns[i].Result) {
				t.Fatalf("%s: the shard artifact merges to a result other than the fresh one's stored fields", catalog[i])
			}
		}
	}
}

// catalogSuites are fresh runs of the base catalog and of the matrix.
var catalogSuites = sync.OnceValue(func() []*sched.SuiteResult {
	return []*sched.SuiteResult{
		sched.RunSuite(apps.SuiteJobs(), sched.SuiteOptions{Workers: 2}),
		sched.RunSuite(matrix.SuiteJobs(), sched.SuiteOptions{Workers: 2}),
	}
})

// TestShardJobIsCompletionOutcome pins that a shard artifact's job and
// a worker's completion carry one record, over every base and matrix
// job with fingerprints and cache flags set in turn. The artifact's job
// entry without its "index":N, is the completion body's "outcome"
// member byte for byte, and the two decode to the same campaign
// result. A result that is JSON but not canonical is refused by the
// live decode, recorded as undecodable by journal replay (so the
// drained queue cannot assemble it), and fails the merge with the job
// named.
func TestShardJobIsCompletionOutcome(t *testing.T) {
	t.Parallel()
	for _, fresh := range catalogSuites() {
		n := len(fresh.Campaigns)
		sr := &sched.SuiteResult{Campaigns: slices.Clone(fresh.Campaigns)}
		catalog, indices := make([]string, n), make([]int, n)
		for i := range sr.Campaigns {
			c := &sr.Campaigns[i]
			catalog[i], indices[i] = c.Job.Label(), i
			if i%2 == 0 {
				c.Fingerprint = fmt.Sprintf("%064x", i+1)
				c.Cached = i%4 == 0
			}
			if i%3 == 0 {
				c.SourceFingerprint = fmt.Sprintf("%064x", i+2)
				c.CachedSource = i%6 == 0
			}
		}
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		spec := sched.ShardSpec{K: 1, N: 1}
		if err := st.WriteShard(spec, catalog, indices, sr); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(st.Dir(), "shards", "shard-1-of-1.json")
		artifact, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		if err := json.Unmarshal(artifact, &file); err != nil || len(file.Jobs) != n {
			t.Fatalf("artifact holds %d jobs (%v), want %d", len(file.Jobs), err, n)
		}
		merged, _, err := store.MergeShards(st.Dir())
		if err != nil {
			t.Fatal(err)
		}

		mj := &MemJournal{}
		co := New(catalog, Options{Journal: mj})
		worker, err := co.Register("w", catalog)
		if err != nil {
			t.Fatal(err)
		}
		recs := mj.Records()
		at := recs[len(recs)-1].AtMillis
		for i := range sr.Campaigns {
			label := catalog[i]
			o, err := store.OutcomeOf(&sr.Campaigns[i])
			if err != nil {
				t.Fatal(err)
			}
			body := appendComplete(nil, &CompleteRequest{Proto: ProtocolVersion, WorkerID: worker, Index: i, Outcome: o})
			var req struct {
				Outcome json.RawMessage `json:"outcome"`
			}
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			prefix := fmt.Sprintf(`{"index":%d,`, i)
			entry := file.Jobs[i]
			if !bytes.HasPrefix(entry, []byte(prefix)) {
				t.Fatalf("%s: artifact job %d does not start with %s", label, i, prefix)
			}
			if got := append([]byte("{"), entry[len(prefix):]...); !bytes.Equal(got, req.Outcome) {
				t.Fatalf("%s: the artifact's job differs from the completion's outcome at byte %d", label, firstDiff(got, req.Outcome))
			}
			r, _, err := decodeComplete(body)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			cr, err := r.Outcome.CampaignResult()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(cr, merged.Campaigns[i]) {
				t.Fatalf("%s: the completion decodes to a campaign result other than the merge's", label)
			}

			// The same record with a result that is JSON but not canonical.
			o.Result = bytes.Replace(o.Result, []byte(`{"campaign":`), []byte(`{"campaign": `), 1)
			body = appendComplete(nil, &CompleteRequest{Proto: ProtocolVersion, WorkerID: worker, Index: i, Outcome: o})
			if _, _, err := decodeComplete(body); err == nil {
				t.Fatalf("%s: a completion with a non-canonical result decodes", label)
			}
			if _, err := o.Check(); !errors.Is(err, store.ErrUndecodable) {
				t.Fatalf("%s: Check of a non-canonical result = %v, want ErrUndecodable", label, err)
			}
			recs = append(recs, &JournalRecord{Op: opComplete, AtMillis: at, Worker: worker, Index: i, Outcome: &o})
		}

		var undecodable int
		logf := func(format string, args ...any) {
			if strings.Contains(fmt.Sprintf(format, args...), "result undecodable") {
				undecodable++
			}
		}
		restored, err := Restore(catalog, Options{Logf: logf}, recs)
		if err != nil {
			t.Fatalf("replay of undecodable completions: %v", err)
		}
		if undecodable != n {
			t.Fatalf("replay logged %d undecodable results, want %d", undecodable, n)
		}
		job0 := fmt.Sprintf("job 0 (%s)", catalog[0])
		if _, err := restored.SuiteResult(); err == nil || !strings.Contains(err.Error(), job0) {
			t.Fatalf("suite result of undecodable completions = %v, want an error naming %s", err, job0)
		}
		bad := bytes.ReplaceAll(artifact, []byte(`,"result":{"campaign":`), []byte(`,"result":{"campaign": `))
		if err := os.WriteFile(path, bad, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, _, err := store.MergeShards(st.Dir()); err == nil || !strings.Contains(err.Error(), job0) {
			t.Fatalf("merge of non-canonical results = %v, want an error naming %s", err, job0)
		}
	}
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// sameStored reports whether a and b agree on every field the store
// keeps: all but the clean trace.
func sameStored(a, b *inject.Result) bool {
	x, y := *a, *b
	x.CleanTrace, y.CleanTrace = nil, nil
	return reflect.DeepEqual(&x, &y)
}
