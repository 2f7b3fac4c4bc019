package matrix_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/matrix"
	"repro/internal/core/eai"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// The matrix's run counts: every injection its cells hold, and the
// distinct runs among them — the ones a dispatcher pass executes.
const (
	matrixInjections = 11212
	matrixDistinct   = 1753
	baseRuns         = 273
)

// jobOptions is a job's effective engine options under a default suite.
func jobOptions(j sched.Job) inject.Options {
	if j.Engine != nil {
		return *j.Engine
	}
	return inject.Options{}
}

// referenceEncodings returns, per matrix job, the store encoding of
// the job's own sequential inject.RunWith result — the ground truth a
// dispatcher that shares runs across jobs must reproduce byte for byte.
var referenceEncodings = sync.OnceValues(func() ([][]byte, error) {
	jobs := matrix.SuiteJobs()
	out := make([][]byte, len(jobs))
	for i, j := range jobs {
		res, err := inject.RunWith(j.Build(), jobOptions(j))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.Label(), err)
		}
		if out[i], err = store.EncodeResult(res); err != nil {
			return nil, fmt.Errorf("%s: %w", j.Label(), err)
		}
	}
	return out, nil
})

// checkAgainstReference compares every campaign of sr with the
// reference encoding of its matrix job; index maps sr's i-th campaign
// to its position in matrix.SuiteJobs().
func checkAgainstReference(t *testing.T, sr *sched.SuiteResult, index []int) {
	t.Helper()
	want, err := referenceEncodings()
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Campaigns) != len(index) {
		t.Fatalf("suite returned %d campaigns, want %d", len(sr.Campaigns), len(index))
	}
	for i, c := range sr.Campaigns {
		if c.Err != nil {
			t.Fatalf("%s: %v", c.Job.Label(), c.Err)
		}
		got, err := store.EncodeResult(c.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[index[i]]) {
			t.Errorf("%s: encoding differs from its own inject.RunWith", c.Job.Label())
		}
	}
}

// identity returns 0..n-1.
func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestMatrixDispatchMatchesRunWith is the differential test for run
// sharing: the whole matrix through RunSuite, each job's encoded result
// equal to that of its own sequential inject.RunWith.
func TestMatrixDispatchMatchesRunWith(t *testing.T) {
	t.Parallel()
	jobs := matrix.SuiteJobs()
	checkAgainstReference(t, sched.RunSuite(jobs, sched.SuiteOptions{Workers: 4}), identity(len(jobs)))
}

// TestMatrixExecutesEachRunOnce pins the executed-run count exactly:
// the matrix executes its distinct runs once whatever the worker count,
// through Run and through RunFrom, and copies the rest; the base
// catalog has no duplicates.
func TestMatrixExecutesEachRunOnce(t *testing.T) {
	t.Parallel()
	jobs := matrix.SuiteJobs()
	check := func(name string, sr *sched.SuiteResult, runs, shared int) {
		t.Helper()
		if f := sr.Failed(); len(f) != 0 {
			t.Fatalf("%s: failed campaigns: %v", name, f)
		}
		ds := sr.Dispatch
		if ds.Runs != runs || ds.Shared != shared {
			t.Errorf("%s: %d run(s) executed and %d shared, want %d and %d", name, ds.Runs, ds.Shared, runs, shared)
		}
	}
	for _, w := range []int{1, 2, 8} {
		check(fmt.Sprintf("matrix -j %d", w), sched.RunSuite(jobs, sched.SuiteOptions{Workers: w}),
			matrixDistinct, matrixInjections-matrixDistinct)
	}
	check("matrix RunFrom", sched.RunSuiteFrom(sched.NewSliceSource(jobs), sched.SuiteOptions{Workers: 2}),
		matrixDistinct, matrixInjections-matrixDistinct)
	check("base", sched.RunSuite(apps.SuiteJobs(), sched.SuiteOptions{Workers: 2}), baseRuns, 0)
}

// runTuple is one distinct run as the matrix's axes define it, computed
// independently of inject.RunKey: the application, the program, the
// armed point, the fault, and the timing of a direct fault.
type runTuple struct {
	app, program, point, fault string
	late                       bool
}

// distinctRuns counts the distinct run tuples the jobs plan.
func distinctRuns(t *testing.T, jobs []sched.Job) int {
	t.Helper()
	seen := map[runTuple]bool{}
	for _, j := range jobs {
		opt := jobOptions(j)
		plan, err := inject.PrepareWith(j.Build(), opt)
		if err != nil {
			t.Fatalf("%s: %v", j.Label(), err)
		}
		program := strings.Split(j.Variant, "+")[0]
		for i := 0; i < plan.NumRuns(); i++ {
			pi := plan.Planned(i)
			seen[runTuple{
				app: j.Name, program: program, point: pi.Point, fault: pi.FaultID,
				late: pi.Class == eai.ClassDirect && opt.DirectAfterPoint,
			}] = true
		}
	}
	return len(seen)
}

// TestRunSharingProperty draws seeded random subsets of the matrix and
// worker counts from 1 to 8, and runs each subset through RunSuite and
// RunSuiteFrom: every job's encoding must equal its own RunWith, and
// the executed-run count must equal the subset's distinct run tuples.
func TestRunSharingProperty(t *testing.T) {
	t.Parallel()
	all := matrix.SuiteJobs()
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 10; round++ {
		workers := 1 + rng.Intn(8)
		index := rng.Perm(len(all))[:10+rng.Intn(60)]
		jobs := make([]sched.Job, len(index))
		for i, k := range index {
			jobs[i] = all[k]
		}
		want := distinctRuns(t, jobs)
		t.Run(fmt.Sprintf("round=%d/j=%d/jobs=%d", round, workers, len(jobs)), func(t *testing.T) {
			opt := sched.SuiteOptions{Workers: workers}
			for name, sr := range map[string]*sched.SuiteResult{
				"RunSuite":     sched.RunSuite(jobs, opt),
				"RunSuiteFrom": sched.RunSuiteFrom(sched.NewSliceSource(jobs), opt),
			} {
				checkAgainstReference(t, sr, index)
				if sr.Dispatch.Runs != want {
					t.Errorf("%s: %d run(s) executed, want %d distinct", name, sr.Dispatch.Runs, want)
				}
			}
		})
	}
}
