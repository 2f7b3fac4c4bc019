package inject_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/matrix"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
	"repro/internal/interpose"
)

// TestCleanTraceDigests pins every catalog job's clean trace, event by
// event and field by field. The reference engine drives the same kernel
// and bus as the engine, so a change inside either one moves both sides
// of TestEngineMatchesReference alike; the goldens see only reports.
// These digests see the trace itself: every Call and Result field, the
// error text, ResolvedPath and Mutated, and whether each payload is nil
// or empty.
func TestCleanTraceDigests(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		catalog string
		jobs    []sched.Job
		want    string
	}{
		{"base", apps.SuiteJobs(), "27951b67a47e9ca309ecef0161404f57e0496a7c9071d77d3c7ce58816980b04"},
		{"matrix", matrix.SuiteJobs(), "2505099f54739c8b4f9ad1108f4b1777c43c20329c9793b36bbdadf58510f0f0"},
	} {
		if got := cleanTraceDigest(t, tc.jobs); got != tc.want {
			t.Errorf("%s catalog (%d jobs): clean-trace digest %s, want %s", tc.catalog, len(tc.jobs), got, tc.want)
		}
	}
}

// cleanTraceDigest plans every job and hashes its label and clean trace.
func cleanTraceDigest(t *testing.T, jobs []sched.Job) string {
	t.Helper()
	h := sha256.New()
	for _, job := range jobs {
		p, err := inject.PrepareWith(job.Build(), jobOptions(job))
		if err != nil {
			t.Fatalf("prepare %s: %v", job.Label(), err)
		}
		trace := p.Shell().CleanTrace
		digestStr(h, job.Label())
		digestInt(h, len(trace))
		for i := range trace {
			digestEvent(h, &trace[i])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// digestEvent writes one event, every field in declaration order.
func digestEvent(h hash.Hash, ev *interpose.Event) {
	c := &ev.Call
	digestInt(h, c.Seq)
	digestStr(h, c.Site)
	digestInt(h, c.Occur)
	digestStr(h, string(c.Op))
	digestInt(h, int(c.Kind))
	digestStr(h, c.Path)
	digestStr(h, c.Path2)
	digestBytes(h, c.Data)
	digestInt(h, int(c.Mode))
	digestInt(h, c.Flags)
	digestInt(h, c.UID)
	digestInt(h, c.EUID)
	digestInt(h, c.GID)
	digestInt(h, c.EGID)
	digestStr(h, c.Cwd)
	r := &ev.Result
	digestBytes(h, r.Data)
	digestStr(h, r.Str)
	digestInt(h, r.N)
	digestBool(h, r.Flag)
	digestBool(h, r.Err != nil)
	if r.Err != nil {
		digestStr(h, r.Err.Error())
	}
	digestStr(h, ev.ResolvedPath)
	digestBool(h, ev.Mutated)
}

// digestBytes tells a nil payload from an empty one.
func digestBytes(h hash.Hash, b []byte) {
	digestBool(h, b != nil)
	digestStr(h, string(b))
}

func digestStr(h hash.Hash, s string) {
	digestInt(h, len(s))
	h.Write([]byte(s))
}

func digestInt(h hash.Hash, v int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
	h.Write(buf[:])
}

func digestBool(h hash.Hash, v bool) {
	b := []byte{0}
	if v {
		b[0] = 1
	}
	h.Write(b)
}

// TestPooledRunsKeepNothing: runs pass their recording storage on to the
// next run, so an Injection that pointed into it would change under later
// runs. Every run of every base plan executes in order on one goroutine,
// each reusing the storage its predecessor released, and every Injection
// is kept; only then is each compared, field for field, with the same run
// on a freshly prepared plan.
func TestPooledRunsKeepNothing(t *testing.T) {
	jobs := apps.SuiteJobs()
	kept := make([][]inject.Injection, len(jobs))
	for j, job := range jobs {
		p, err := inject.PrepareWith(job.Build(), jobOptions(job))
		if err != nil {
			t.Fatalf("prepare %s: %v", job.Label(), err)
		}
		kept[j] = make([]inject.Injection, p.NumRuns())
		for i := range kept[j] {
			kept[j][i] = p.RunOne(i)
		}
	}
	for j, job := range jobs {
		fresh, err := inject.PrepareWith(job.Build(), jobOptions(job))
		if err != nil {
			t.Fatalf("prepare %s: %v", job.Label(), err)
		}
		for i, got := range kept[j] {
			if want := fresh.RunOne(i); !reflect.DeepEqual(got, want) {
				t.Errorf("%s run %d changed after later runs:\n  kept  %+v\n  fresh %+v", job.Label(), i, got, want)
			}
		}
	}
}
