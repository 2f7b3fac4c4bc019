package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/matrix"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
	"repro/internal/interpose"
)

// The eptest-store/1 reference: the encoding/json entry as it was
// before version 2 dropped the clean trace from the campaign encoding.
// It is kept only to write the entries a store from before version 2
// holds.

// v1Entry is a version-1 cache entry.
type v1Entry struct {
	Store       string      `json:"store"`
	Engine      string      `json:"engine"`
	Fingerprint string      `json:"fingerprint"`
	Label       string      `json:"label"`
	Result      *v1Campaign `json:"result"`
}

// v1Campaign is the version-1 campaign encoding, clean trace included.
type v1Campaign struct {
	Campaign       string             `json:"campaign"`
	CleanTrace     []v1Event          `json:"clean_trace"`
	TotalSites     []string           `json:"total_sites"`
	PerturbedSites []string           `json:"perturbed_sites,omitempty"`
	Injections     []inject.Injection `json:"injections"`
}

// v1Event is one clean-trace event, its error flattened to the message.
type v1Event struct {
	Call   interpose.Call `json:"call"`
	Result struct {
		Data []byte `json:"data,omitempty"`
		Str  string `json:"str,omitempty"`
		N    int    `json:"n,omitempty"`
		Flag bool   `json:"flag,omitempty"`
		Err  string `json:"err,omitempty"`
	} `json:"result"`
	ResolvedPath string `json:"resolved_path,omitempty"`
	Mutated      bool   `json:"mutated,omitempty"`
}

// encodeV1Entry writes r under fp as a version-1 store wrote it.
func encodeV1Entry(fp, label string, r *inject.Result) ([]byte, error) {
	w := &v1Campaign{
		Campaign:       r.Campaign,
		CleanTrace:     make([]v1Event, len(r.CleanTrace)),
		TotalSites:     r.TotalSites,
		PerturbedSites: r.PerturbedSites,
		Injections:     r.Injections,
	}
	for i := range r.CleanTrace {
		ev, we := &r.CleanTrace[i], &w.CleanTrace[i]
		we.Call = ev.Call
		we.Result.Data, we.Result.Str, we.Result.N, we.Result.Flag = ev.Result.Data, ev.Result.Str, ev.Result.N, ev.Result.Flag
		if ev.Result.Err != nil {
			we.Result.Err = ev.Result.Err.Error()
		}
		we.ResolvedPath, we.Mutated = ev.ResolvedPath, ev.Mutated
	}
	return json.Marshal(&v1Entry{"eptest-store/1", inject.EngineVersion, fp, label, w})
}

// TestV1StoreRerunsOnce opens a store whose segment holds every
// catalog entry in the version-1 form, clean trace included. No entry
// replays: each job misses and runs once, with the result a cold run
// gives, and its result is stored anew, so a second pass replays every
// job.
func TestV1StoreRerunsOnce(t *testing.T) {
	t.Parallel()
	cold, puts := catalogRuns()
	var seg []byte
	for _, p := range puts {
		if len(p.res.CleanTrace) == 0 {
			t.Fatalf("%s: a fresh result without a clean trace", p.label)
		}
		body, err := encodeV1Entry(p.fp, p.label, p.res)
		if err != nil {
			t.Fatal(err)
		}
		seg = append(appendHeader(seg, p.fp, len(body)), body...)
	}
	// Each catalog gets its own copy of the old store: the matrix
	// shares fingerprints with the base catalog, so one store would
	// let the base catalog's re-runs turn matrix jobs into hits.
	for i, jobs := range [][]sched.Job{apps.SuiteJobs(), matrix.SuiteJobs()} {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, segmentDir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentDir, "v1"+segmentExt), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for pass, wantCached := range []bool{false, true} {
			sr := sched.RunSuite(jobs, sched.SuiteOptions{Workers: 2, Cache: st})
			for j, cr := range sr.Campaigns {
				label := cr.Job.Label()
				if cr.Cached != wantCached || cr.Err != nil || cr.CacheErr != nil {
					t.Fatalf("pass %d, %s: cached %v, err %v, cache err %v; want cached %v", pass+1, label, cr.Cached, cr.Err, cr.CacheErr, wantCached)
				}
				// A re-run is fresh and has its clean trace; a replay
				// has none.
				if got := cr.Result; (len(got.CleanTrace) > 0) == wantCached || !sameStored(got, cold[i].Campaigns[j].Result) {
					t.Fatalf("pass %d, %s: the result differs from a cold run", pass+1, label)
				}
			}
		}
	}
}
