package bench

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core/coord"
	"repro/internal/core/findings"
	"repro/internal/core/obs"
	"repro/internal/core/report"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// Workload names. BENCHMARK.json is the list of workloads; these are the
// names newRunner knows how to run.
const (
	WorkloadBase       = "base"
	WorkloadMatrixCold = "matrix-cold"
	WorkloadMatrixWarm = "matrix-warm"
	WorkloadFleet      = "fleet"
)

// Env is what one benchmark process needs to run a workload.
type Env struct {
	// Eptest is the eptest binary built from this checkout.
	Eptest string
	// Work is a scratch directory owned by this process.
	Work string
	// Workers is the concurrency every workload runs at.
	Workers int
	// Seed permutes the catalog order of the in-process workloads.
	Seed int64
	// Base and Matrix are the catalogs the workloads run; tests run
	// slices of them.
	Base, Matrix Catalog
}

// Pass is one timed pass of a workload: one whole suite, start to
// checked output.
type Pass struct {
	Wall time.Duration `json:"wall"`
	Runs int           `json:"runs"`
	// MaxRSSKB is the eptest process's peak RSS, for a pass through the
	// CLI; an in-process pass shares its process's peak.
	MaxRSSKB int64 `json:"max_rss_kb,omitempty"`
}

// storeMode is how a workload uses the result store.
type storeMode int

const (
	noStore   storeMode = iota
	coldStore           // a fresh empty store for every pass
	warmStore           // one store filled before the first pass
)

// runner runs one workload inside one benchmark process.
type runner struct {
	env  *Env
	name string
	cat  Catalog
	mode storeMode
	// cli marks a workload whose timed pass is an eptest invocation.
	cli bool
	// fleet marks the journaled-coordinator workload.
	fleet bool

	jobs []sched.Job
	fps  map[string]string // source fingerprints, once a pass is traced
	warm string            // the filled store, in warm mode
	seq  int               // names fresh per-pass directories
}

// newRunner returns the runner for a workload name.
func newRunner(name string, env *Env) (*runner, error) {
	r := &runner{env: env, name: name}
	switch name {
	case WorkloadBase:
		r.cat = env.Base
	case WorkloadMatrixCold:
		r.cat, r.mode, r.cli = env.Matrix, coldStore, true
	case WorkloadMatrixWarm:
		r.cat, r.mode, r.cli = env.Matrix, warmStore, true
	case WorkloadFleet:
		r.cat, r.mode, r.fleet = env.Matrix, coldStore, true
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return r, nil
}

// setup prepares everything the first timed pass needs and runs one
// checked, untimed warm-up pass, which also builds the lazily memoized
// world images. For the CLI workloads the warm-up writes its report to
// a file, where the run count is checked; in warm mode it fills the
// store the timed passes replay.
func (r *runner) setup() error {
	r.jobs = r.cat.Jobs(r.env.Seed)
	if !r.cli {
		_, err := r.pass()
		return err
	}
	if r.mode == warmStore {
		r.warm = filepath.Join(r.env.Work, "warm-store")
	}
	reportPath := filepath.Join(r.env.Work, "report.txt")
	if _, _, err := r.cliPass(reportPath, false); err != nil {
		return err
	}
	out, err := os.ReadFile(reportPath)
	if err != nil {
		return err
	}
	campaigns, runs, err := ReportRuns(out)
	if err != nil {
		return err
	}
	if campaigns != len(r.jobs) {
		return fmt.Errorf("eptest ran %d campaigns, want %d", campaigns, len(r.jobs))
	}
	return r.cat.CheckRuns(runs)
}

// pass runs one timed end-to-end pass.
func (r *runner) pass() (Pass, error) {
	switch {
	case r.cli:
		p, _, err := r.cliPass(os.DevNull, false)
		return p, err
	case r.fleet:
		p, _, err := r.fleetPass(nil)
		return p, err
	}
	p, _, err := r.suitePass(nil, telemetry{})
	return p, err
}

// traced runs one pass of the workload's in-process form, recording its
// spans into rec when rec is not nil: the fleet and base passes
// themselves, and for the CLI workloads the sched.RunSuite equivalent
// of the eptest invocation, which the benchmark can see into.
func (r *runner) traced(rec *Recorder) (Pass, *passTrace, error) {
	if r.fleet {
		return r.fleetPass(rec)
	}
	return r.suitePass(rec, telemetry{})
}

// sourceFPs returns the jobs' source fingerprints, computed on first
// use so only traced runs pay for them.
func (r *runner) sourceFPs() map[string]string {
	if r.fps == nil {
		r.fps = sourceFingerprints(r.jobs)
	}
	return r.fps
}

// fresh returns a new, not yet existing directory under the work dir.
func (r *runner) fresh(prefix string) string {
	r.seq++
	return filepath.Join(r.env.Work, prefix+"-"+strconv.Itoa(r.seq))
}

// storeDir is the store a pass uses: the filled one in warm mode, a
// fresh one in cold mode (the caller removes it), none otherwise.
func (r *runner) storeDir() string {
	switch r.mode {
	case warmStore:
		return r.warm
	case coldStore:
		return r.fresh("store")
	}
	return ""
}

// cliArgs is the eptest command line for one pass over the workload's
// catalog and store.
func (r *runner) cliArgs(storeDir, findingsPath string) []string {
	args := append(r.cat.CLIArgs(), "-j", strconv.Itoa(r.env.Workers))
	if storeDir != "" {
		args = append(args, "-cache", storeDir)
	}
	return append(args, "-findings", findingsPath)
}

// cliPass runs eptest over the catalog with its report sent to stdout,
// and checks the findings file it writes. The run count is the
// catalog's: the CLI passes its report to a sink, so the count is
// checked on the warm-up pass, whose report goes to a file.
func (r *runner) cliPass(stdout string, gctrace bool) (Pass, cliRun, error) {
	dir := r.storeDir()
	if r.mode == coldStore {
		defer os.RemoveAll(dir)
	}
	findingsPath := filepath.Join(r.env.Work, "findings.json")
	run, err := runCLI(r.env.Eptest, r.env.Work, r.cliArgs(dir, findingsPath), stdout, gctrace)
	if err != nil {
		return Pass{}, run, err
	}
	export, err := os.ReadFile(findingsPath)
	if err != nil {
		return Pass{}, run, err
	}
	if err := r.cat.CheckFindings(export); err != nil {
		return Pass{}, run, err
	}
	return Pass{Wall: run.Wall, Runs: r.cat.Runs, MaxRSSKB: run.MaxRSSKB}, run, nil
}

// passTrace is what one traced pass contributes to the per-layer
// metrics: its spans, plus what the dispatcher reports only in total.
type passTrace struct {
	Spans []Span
	// Lanes is the number of worker lanes while the pass dispatches.
	Lanes int
	// RunTime is the injection-run time the dispatcher's metrics
	// registry summed up; individual runs have no span.
	RunTime time.Duration
	Plans   int
	Steals  int
	// CacheGets and CacheHits count probes of the workers' cache.
	CacheGets, CacheHits int64
}

// telemetry is the observability a suite pass carries. The zero value
// is what `eptest -all` attaches by default: a metrics registry and no
// tracer.
type telemetry struct {
	noRegistry bool
	// tracePath, when set, attaches an obs.Tracer writing there.
	tracePath string
}

// suitePass runs the catalog through sched.RunSuite the way `eptest
// -all` does — findings folded, the report rendered — and checks the
// output.
func (r *runner) suitePass(rec *Recorder, tel telemetry) (Pass, *passTrace, error) {
	start := time.Now()
	root := rec.Begin("bench.pass", 0, laneMain, r.name)
	var cache sched.Cache
	if dir := r.storeDir(); dir != "" {
		if r.mode == coldStore {
			defer os.RemoveAll(dir)
		}
		st, err := store.Open(dir)
		if err != nil {
			return Pass{}, nil, err
		}
		cache = st
	}
	jobs := r.jobs
	var reg *obs.Registry
	if !tel.noRegistry {
		reg = obs.NewRegistry()
	}
	opt := sched.SuiteOptions{Workers: r.env.Workers, Metrics: reg, Cache: cache}
	if tel.tracePath != "" {
		tracer, err := obs.StartTrace(tel.tracePath)
		if err != nil {
			return Pass{}, nil, err
		}
		defer tracer.Close()
		opt.Tracer = tracer
	}
	dispatch := rec.Begin("sched.dispatch", root, laneMain, "")
	var tc *tracedCache
	if rec != nil {
		plans := newPlanSpans(rec, func() (int, int) { return dispatch, -1 }, r.sourceFPs())
		jobs, opt.OnEvent = plans.wrap(jobs), plans.event
		if cache != nil {
			tc = &tracedCache{next: cache, rec: rec, layer: "store", place: func(fp string) (int, int) {
				if p := plans.planFor(fp); p != 0 {
					return p, -1
				}
				return dispatch, -1
			}}
			opt.Cache = tc
		}
	}
	sr := sched.RunSuite(jobs, opt)
	rec.End(dispatch)
	export, err := foldFindings(rec, root, sr, reg)
	if err != nil {
		return Pass{}, nil, err
	}
	renderReport(rec, root, sr, r.cat.Matrix, cache != nil)
	if err := opt.Tracer.Close(); err != nil {
		return Pass{}, nil, err
	}
	check := rec.Begin("bench.check", root, laneMain, "")
	err = r.cat.Verify(sr, export)
	rec.End(check)
	wall := time.Since(start)
	rec.End(root)
	if err != nil {
		return Pass{}, nil, err
	}
	p := Pass{Wall: wall, Runs: r.cat.Runs}
	if rec == nil {
		return p, nil, nil
	}
	pt := &passTrace{
		Spans:   rec.Since(root),
		Lanes:   r.env.Workers,
		RunTime: time.Duration(reg.Histogram("eptest_run_seconds", "", obs.DefBuckets).Sum() * float64(time.Second)),
		Plans:   sr.Dispatch.Plans,
		Steals:  sr.Dispatch.Steals,
	}
	if tc != nil {
		pt.CacheGets, pt.CacheHits = tc.gets.Load(), tc.hits.Load()
	}
	// Which dispatcher worker ran a span is not visible from outside;
	// lanes only make the trace readable.
	AssignLanes(pt.Spans, dispatch, 1)
	return p, pt, nil
}

// foldFindings folds the suite into its canonical findings export, as
// the CLI does after every suite run.
func foldFindings(rec *Recorder, parent int, sr *sched.SuiteResult, reg *obs.Registry) ([]byte, error) {
	id := rec.Begin("findings.fold", parent, laneMain, "")
	defer rec.End(id)
	rep := findings.FromSuite(sr)
	findings.Instrument(reg, rep)
	return rep.Encode()
}

// renderReport renders the suite report the CLI prints.
func renderReport(rec *Recorder, parent int, sr *sched.SuiteResult, matrix, cached bool) {
	id := rec.Begin("report.render", parent, laneMain, "")
	defer rec.End(id)
	var b strings.Builder
	b.WriteString(report.SuiteRun(sr))
	b.WriteString(report.Clusters(sched.ClusterSuite(sr)))
	if matrix {
		b.WriteString(report.Matrix(sr))
	}
	if cached {
		b.WriteString(report.CacheStats(sr))
	}
}

// fleetLanes is the fleet's worker count: two workers, each a
// one-worker dispatcher, as two single-CPU machines would run.
const fleetLanes = 2

// drainTimeout bounds the wait for the coordinator to record the last
// completion after both workers returned.
const drainTimeout = 2 * time.Minute

// fleetPass runs the catalog through a journaled coordinator on a
// loopback HTTP server, mounted exactly as `eptest -serve-coord` mounts
// it, with two workers built the way `eptest -all -coord-url` builds
// them. The pass ends when the drained coordinator's merged result is
// written as the store's shard artifact, folded and checked.
func (r *runner) fleetPass(rec *Recorder) (Pass, *passTrace, error) {
	start := time.Now()
	root := rec.Begin("bench.pass", 0, laneMain, r.name)
	setup := rec.Begin("coord.setup", root, laneMain, "")
	dir := r.fresh("fleet")
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return Pass{}, nil, err
	}
	fj, _, err := coord.OpenFileJournal(filepath.Join(dir, "coord", "journal.jsonl"))
	if err != nil {
		return Pass{}, nil, err
	}
	defer fj.Close()
	var journal coord.Journal = fj
	if rec != nil {
		journal = &tracedJournal{next: fj, rec: rec}
	}
	catalog := Labels(r.jobs)
	reg := obs.NewRegistry()
	co := coord.New(catalog, coord.Options{
		Metrics: reg,
		Journal: journal,
		Results: st,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "eptbench: coordinator: "+format+"\n", args...)
		},
	})
	srv := httptest.NewServer(coordHandler(rec, co, st, reg))
	defer srv.Close()

	type worker struct {
		src  *coord.Source
		next sched.JobSource
		opt  sched.SuiteOptions
		lane *fleetLane
		tc   *tracedCache
		sr   *sched.SuiteResult
	}
	workers := make([]*worker, fleetLanes)
	for i := range workers {
		w := &worker{opt: sched.SuiteOptions{Workers: 1}}
		jobs := r.jobs
		cl, err := coord.Dial(srv.URL)
		if err != nil {
			return Pass{}, nil, err
		}
		if err := cl.Register("bench-"+strconv.Itoa(i), catalog); err != nil {
			return Pass{}, nil, err
		}
		cache, err := store.Dial(srv.URL)
		if err != nil {
			return Pass{}, nil, err
		}
		w.opt.Cache = cache
		if rec != nil {
			// The source hands out the jobs it was built with, so a
			// traced worker's source is built over the wrapped ones.
			w.lane = newFleetLane(rec, 1+i, r.sourceFPs())
			jobs, w.opt.OnEvent = w.lane.plan.wrap(jobs), w.lane.plan.event
			w.tc = &tracedCache{next: cache, rec: rec, layer: "storehttp", place: w.lane.place}
			w.opt.Cache = w.tc
		}
		if w.src, err = coord.NewSource(cl, jobs); err != nil {
			return Pass{}, nil, err
		}
		defer w.src.Close()
		w.next = w.src
		if rec != nil {
			w.next = w.lane.source(w.src)
		}
		workers[i] = w
	}
	rec.End(setup)

	dispatch := rec.Begin("sched.dispatch", root, laneMain, "")
	var wg sync.WaitGroup
	for i, w := range workers {
		lane := 1 + i
		wroot := rec.Begin("sched.worker", dispatch, lane, "")
		if w.lane != nil {
			w.lane.root = wroot
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.sr = sched.RunSuiteFrom(w.next, w.opt)
			flush := rec.Begin("coord.flush", wroot, lane, "")
			w.src.Close()
			rec.End(flush)
			rec.End(wroot)
		}()
	}
	wg.Wait()
	rec.End(dispatch)
	for _, w := range workers {
		if err := w.src.Err(); err != nil {
			return Pass{}, nil, err
		}
	}

	drain := rec.Begin("coord.drain", root, laneMain, "")
	select {
	case <-co.Drained():
	case <-time.After(drainTimeout):
		return Pass{}, nil, errors.New("coordinator did not drain after both workers finished")
	}
	sr, err := co.SuiteResult()
	if err != nil {
		return Pass{}, nil, err
	}
	if err := st.WriteShard(sched.ShardSpec{K: 1, N: 1}, catalog, indices(len(catalog)), sr); err != nil {
		return Pass{}, nil, err
	}
	rec.End(drain)
	export, err := foldFindings(rec, root, sr, reg)
	if err != nil {
		return Pass{}, nil, err
	}
	renderReport(rec, root, sr, r.cat.Matrix, false)
	check := rec.Begin("bench.check", root, laneMain, "")
	err = r.cat.Verify(sr, export)
	rec.End(check)
	wall := time.Since(start)
	rec.End(root)
	if err != nil {
		return Pass{}, nil, err
	}
	p := Pass{Wall: wall, Runs: r.cat.Runs}
	if rec == nil {
		return p, nil, nil
	}
	pt := &passTrace{Spans: rec.Since(root), Lanes: fleetLanes}
	for _, w := range workers {
		pt.Plans += w.sr.Dispatch.Plans
		pt.Steals += w.sr.Dispatch.Steals
		pt.CacheGets += w.tc.gets.Load()
		pt.CacheHits += w.tc.hits.Load()
	}
	return p, pt, nil
}

func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
