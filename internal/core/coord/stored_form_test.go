package coord

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
	for _, jobs := range [][]sched.Job{apps.SuiteJobs(), matrix.SuiteJobs()} {
		sr := sched.RunSuite(jobs, sched.SuiteOptions{Workers: 2})
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		catalog := make([]string, len(jobs))
		indices := make([]int, len(jobs))
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

			o, err := outcomeFromResult(c)
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

// sameStored reports whether a and b agree on every field the store
// keeps: all but the clean trace.
func sameStored(a, b *inject.Result) bool {
	x, y := *a, *b
	x.CleanTrace, y.CleanTrace = nil, nil
	return reflect.DeepEqual(&x, &y)
}
