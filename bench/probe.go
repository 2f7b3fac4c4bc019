package bench

import (
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core/coord"
	"repro/internal/core/findings"
	"repro/internal/core/inject"
	"repro/internal/core/obs"
	"repro/internal/core/policy"
	"repro/internal/core/sched"
	"repro/internal/core/store"
	"repro/internal/interpose"
	"repro/internal/sim/vfs"
)

// probeBox is how long a probe repeats a measurement after its minimum
// repetitions, so short measurements collect enough samples.
const probeBox = 300 * time.Millisecond

// repeat calls fn at least min times and until box has passed.
func repeat(min int, box time.Duration, fn func() error) error {
	start := time.Now()
	for i := 0; i < min || time.Since(start) < box; i++ {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// engineRun is one catalog job as the probes' sequential engine loop
// produced it.
type engineRun struct {
	job      sched.Job
	campaign inject.Campaign
	result   *inject.Result
	fp       string
}

// probe measures every layer on the workload's catalog and store mode
// through calls the benchmark makes itself, and returns the per-layer
// metrics that do not come from the traced passes. Every workload gets
// every metric: a layer its passes bypass is still measured on its
// inputs, so the numbers line up across workloads.
func (r *runner) probe() (map[string]float64, error) {
	m := make(map[string]float64)
	runs, err := r.probeEngine(m)
	if err != nil {
		return nil, fmt.Errorf("engine probe: %w", err)
	}
	steps := []struct {
		name string
		fn   func(map[string]float64, []engineRun) error
	}{
		{"vfs", probeResolve},
		{"policy", probeSeed},
		{"store", r.probeStore},
		{"storehttp", r.probeStoreHTTP},
		{"coord", r.probeCoord},
		{"findings", r.probeFold},
		{"cli", r.probeCLI},
		{"obs", r.probeObs},
	}
	for _, s := range steps {
		if err := s.fn(m, runs); err != nil {
			return nil, fmt.Errorf("%s probe: %w", s.name, err)
		}
	}
	return m, nil
}

// mallocs is the process's heap-allocation count so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probeEngine drives the engine one job at a time, on one goroutine
// with no dispatcher: PrepareWith, then RunOneObserved per run, timing plan
// and the world/exec/compare phases and counting allocations. Its
// results feed the other probes and are checked like any pass.
func (r *runner) probeEngine(m map[string]float64) ([]engineRun, error) {
	var plans, world, exec, compare []time.Duration
	var planAllocs, runAllocs uint64
	phase := func(name string, _ time.Time, d time.Duration) {
		switch name {
		case "world":
			world = append(world, d)
		case "exec":
			exec = append(exec, d)
		case "compare":
			compare = append(compare, d)
		}
	}
	out := make([]engineRun, 0, len(r.jobs))
	sr := &sched.SuiteResult{}
	for _, job := range r.jobs {
		c := job.Build()
		opt := inject.Options{}
		if job.Engine != nil {
			opt = *job.Engine
		}
		a0 := mallocs()
		t0 := time.Now()
		plan, err := inject.PrepareWith(c, opt)
		plans = append(plans, time.Since(t0))
		a1 := mallocs()
		planAllocs += a1 - a0
		if err != nil {
			return nil, fmt.Errorf("%s: %w", job.Label(), err)
		}
		res := plan.Shell()
		res.Injections = make([]inject.Injection, plan.NumRuns())
		for i := range res.Injections {
			res.Injections[i] = plan.RunOneObserved(i, phase)
		}
		runAllocs += mallocs() - a1
		out = append(out, engineRun{job: job, campaign: c, result: &res, fp: plan.Fingerprint(job.Name, job.Variant)})
		sr.Campaigns = append(sr.Campaigns, sched.CampaignResult{Job: job, Result: &res})
	}
	export, err := findings.FromSuite(sr).Encode()
	if err != nil {
		return nil, err
	}
	if err := r.cat.Verify(sr, export); err != nil {
		return nil, err
	}
	m["inject.plan_us_p50"] = Median(durations(plans, micros))
	m["inject.plan_us_p99"] = Percentile(durations(plans, micros), 99)
	m["inject.plan_allocs"] = float64(planAllocs) / float64(len(plans))
	m["inject.world_us_p50"] = Median(durations(world, micros))
	m["inject.world_us_p99"] = Percentile(durations(world, micros), 99)
	m["inject.exec_us_p50"] = Median(durations(exec, micros))
	m["inject.exec_us_p99"] = Percentile(durations(exec, micros), 99)
	m["inject.compare_us_p50"] = Median(durations(compare, micros))
	m["inject.compare_us_p99"] = Percentile(durations(compare, micros), 99)
	m["inject.run_allocs"] = float64(runAllocs) / float64(len(exec))
	m["inject.exec_share"] = sum(exec).Seconds() / (sum(world) + sum(exec) + sum(compare)).Seconds()
	return out, nil
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// cleanWorld is a campaign's frozen clean filesystem — the image its
// injection runs fork from and its oracle is seeded against.
func cleanWorld(c inject.Campaign) *vfs.FS {
	return inject.NewRunWorld(c.World).BaseFS()
}

// probeResolve replays every file path of the clean traces through the
// clean world's path resolution.
func probeResolve(m map[string]float64, runs []engineRun) error {
	type lookup struct {
		fs        *vfs.FS
		cwd, path string
	}
	var lookups []lookup
	for _, er := range runs {
		fs := cleanWorld(er.campaign)
		for _, ev := range er.result.CleanTrace {
			c := &ev.Call
			if (c.Kind == interpose.KindFile || c.Kind == interpose.KindDir) && c.Path != "" {
				cwd := c.Cwd
				if cwd == "" {
					cwd = "/"
				}
				lookups = append(lookups, lookup{fs, cwd, c.Path})
			}
		}
	}
	if len(lookups) == 0 {
		return fmt.Errorf("no file paths on the clean traces")
	}
	var n int
	var elapsed time.Duration
	var allocs uint64
	err := repeat(3, probeBox, func() error {
		a0 := mallocs()
		t0 := time.Now()
		for _, l := range lookups {
			l.fs.Resolve(l.cwd, l.path, true)
		}
		elapsed += time.Since(t0)
		allocs += mallocs() - a0
		n += len(lookups)
		return nil
	})
	m["vfs.resolve_ns"] = float64(elapsed.Nanoseconds()) / float64(n)
	m["vfs.resolve_allocs"] = float64(allocs) / float64(n)
	return err
}

// probeSeed times the oracle's prefix seeding of each clean trace.
func probeSeed(m map[string]float64, runs []engineRun) error {
	var seeds []time.Duration
	for _, er := range runs {
		snap := cleanWorld(er.campaign)
		t0 := time.Now()
		policy.NewSeed(er.campaign.Policy, er.result.CleanTrace, snap)
		seeds = append(seeds, time.Since(t0))
	}
	m["policy.seed_us"] = Median(durations(seeds, micros))
	return nil
}

// probeStore writes every campaign result into an empty local store and
// reads it back, timing the codec separately.
func (r *runner) probeStore(m map[string]float64, runs []engineRun) error {
	st, err := store.Open(r.fresh("probe-store"))
	if err != nil {
		return err
	}
	defer os.RemoveAll(st.Dir())
	var enc, dec, put, get []time.Duration
	for _, er := range runs {
		t0 := time.Now()
		b, err := store.EncodeResult(er.result)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := store.DecodeResult(b); err != nil {
			return err
		}
		t2 := time.Now()
		if err := st.Put(er.fp, er.job.Label(), er.result); err != nil {
			return err
		}
		enc, dec, put = append(enc, t1.Sub(t0)), append(dec, t2.Sub(t1)), append(put, time.Since(t2))
	}
	for _, er := range runs {
		t0 := time.Now()
		_, ok := st.Get(er.fp)
		get = append(get, time.Since(t0))
		if !ok {
			return fmt.Errorf("%s: not found after Put", er.job.Label())
		}
	}
	bytes, err := dirBytes(st.Dir())
	if err != nil {
		return err
	}
	m["store.encode_us_p50"] = Median(durations(enc, micros))
	m["store.decode_us_p50"] = Median(durations(dec, micros))
	m["store.put_us_p50"] = Median(durations(put, micros))
	m["store.put_us_p99"] = Percentile(durations(put, micros), 99)
	m["store.get_us_p50"] = Median(durations(get, micros))
	m["store.get_us_p99"] = Percentile(durations(get, micros), 99)
	m["store.bytes_per_campaign"] = float64(bytes) / float64(len(runs))
	return nil
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	return n, err
}

// probeStoreHTTP writes and reads every result through the HTTP cache
// transport a fleet worker uses, timed at the client.
func (r *runner) probeStoreHTTP(m map[string]float64, runs []engineRun) error {
	st, err := store.Open(r.fresh("probe-storehttp"))
	if err != nil {
		return err
	}
	defer os.RemoveAll(st.Dir())
	srv := httptest.NewServer(store.NewServer(st))
	defer srv.Close()
	cl, err := store.Dial(srv.URL)
	if err != nil {
		return err
	}
	var put, get []time.Duration
	for _, er := range runs {
		t0 := time.Now()
		if err := cl.Put(er.fp, er.job.Label(), er.result); err != nil {
			return err
		}
		put = append(put, time.Since(t0))
	}
	for _, er := range runs {
		t0 := time.Now()
		_, ok := cl.Get(er.fp)
		get = append(get, time.Since(t0))
		if !ok {
			return fmt.Errorf("%s: not found after PUT", er.job.Label())
		}
	}
	m["storehttp.put_us_p50"] = Median(durations(put, micros))
	m["storehttp.put_us_p99"] = Percentile(durations(put, micros), 99)
	m["storehttp.get_us_p50"] = Median(durations(get, micros))
	return nil
}

// probeCoord serves the catalog from a journaled coordinator mounted as
// `eptest -serve-coord` mounts it, and has two clients claim every job
// and complete it with its precomputed outcome, so only the claim
// protocol, HTTP and the journal are timed. As on a real coordinator,
// the results are already in its store when they complete.
func (r *runner) probeCoord(m map[string]float64, runs []engineRun) error {
	dir := r.fresh("probe-coord")
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	outcomes := make([]coord.Outcome, len(runs))
	for i, er := range runs {
		if err := st.Put(er.fp, er.job.Label(), er.result); err != nil {
			return err
		}
		b, err := store.EncodeResult(er.result)
		if err != nil {
			return err
		}
		outcomes[i] = coord.Outcome{Name: er.job.Name, Variant: er.job.Variant, Fingerprint: er.fp, Result: b}
	}
	journalPath := filepath.Join(dir, "coord", "journal.jsonl")
	fj, _, err := coord.OpenFileJournal(journalPath)
	if err != nil {
		return err
	}
	defer fj.Close()
	rec := NewRecorder()
	reg := obs.NewRegistry()
	catalog := Labels(r.jobs)
	co := coord.New(catalog, coord.Options{Metrics: reg, Journal: &tracedJournal{next: fj, rec: rec}, Results: st})
	srv := httptest.NewServer(coordHandler(rec, co, st, reg))
	defer srv.Close()

	var mu sync.Mutex
	var waits []time.Duration
	errs := make(chan error, fleetLanes)
	for i := 0; i < fleetLanes; i++ {
		go func() {
			errs <- func() error {
				cl, err := coord.Dial(srv.URL)
				if err != nil {
					return err
				}
				if err := cl.Register(fmt.Sprintf("probe-%d", i), catalog); err != nil {
					return err
				}
				for {
					t0 := time.Now()
					idx, status, err := cl.Claim()
					d := time.Since(t0)
					if err != nil {
						return err
					}
					switch status {
					case coord.ClaimDrained:
						return nil
					case coord.ClaimGranted:
						mu.Lock()
						waits = append(waits, d)
						mu.Unlock()
						if _, err := cl.Complete(idx, outcomes[idx]); err != nil {
							return err
						}
					}
				}
			}()
		}()
	}
	for i := 0; i < fleetLanes; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	spans := rec.Spans()
	requests := 0
	for i := range spans {
		if strings.HasPrefix(spans[i].Name, "coord.serve_") {
			requests++
		}
	}
	info, err := os.Stat(journalPath)
	if err != nil {
		return err
	}
	claim := durations(Durations(spans, "coord.serve_claim"), micros)
	complete := durations(Durations(spans, "coord.serve_complete"), micros)
	appends := durations(Durations(spans, "coord.journal_append"), micros)
	syncs := durations(Durations(spans, "coord.journal_sync"), micros)
	m["coord.claim_us_p50"] = Median(claim)
	m["coord.claim_us_p99"] = Percentile(claim, 99)
	m["coord.complete_us_p50"] = Median(complete)
	m["coord.complete_us_p99"] = Percentile(complete, 99)
	m["coord.claim_wait_us_p50"] = Median(durations(waits, micros))
	m["coord.claim_wait_us_p99"] = Percentile(durations(waits, micros), 99)
	m["coord.journal_append_us_p50"] = Median(appends)
	m["coord.journal_append_us_p99"] = Percentile(appends, 99)
	m["coord.journal_sync_us_p50"] = Median(syncs)
	m["coord.journal_sync_us_p99"] = Percentile(syncs, 99)
	m["coord.journal_bytes_per_job"] = float64(info.Size()) / float64(len(runs))
	m["coord.requests_per_job"] = float64(requests) / float64(len(runs))
	return nil
}

// probeFold times folding the catalog's results into the findings
// export and rendering the suite report.
func (r *runner) probeFold(m map[string]float64, runs []engineRun) error {
	sr := &sched.SuiteResult{}
	for _, er := range runs {
		sr.Campaigns = append(sr.Campaigns, sched.CampaignResult{Job: er.job, Result: er.result})
	}
	var fold, render []time.Duration
	err := repeat(3, probeBox, func() error {
		t0 := time.Now()
		rep := findings.FromSuite(sr)
		findings.Instrument(obs.NewRegistry(), rep)
		if _, err := rep.Encode(); err != nil {
			return err
		}
		t1 := time.Now()
		renderReport(nil, 0, sr, r.cat.Matrix, r.mode != noStore)
		fold, render = append(fold, t1.Sub(t0)), append(render, time.Since(t1))
		return nil
	})
	m["findings.fold_ms"] = Median(durations(fold, millis))
	m["report.render_ms"] = Median(durations(render, millis))
	return err
}

// cliBox bounds the CLI probe's repetitions; a matrix pass through the
// progress renderer takes seconds.
const cliBox = 2 * time.Second

// probeCLI runs the workload's catalog and store mode through eptest —
// stdout to /dev/null as CI does, and to a regular file — and through
// the in-process equivalent, sched.RunSuite. It also takes the process
// metrics: the CPU time and garbage collections of the process doing
// the work (eptest for the CLI workloads).
func (r *runner) probeCLI(m map[string]float64, _ []engineRun) error {
	var devnull, file, inproc []float64
	var work processCost
	reportPath := filepath.Join(r.env.Work, "report.txt")
	err := repeat(2, cliBox, func() error {
		_, dn, err := r.cliPass(os.DevNull, true)
		if err != nil {
			return err
		}
		_, f, err := r.cliPass(reportPath, false)
		if err != nil {
			return err
		}
		ip, _, err := r.suitePass(nil, telemetry{})
		if err != nil {
			return err
		}
		devnull, file, inproc = append(devnull, millis(dn.Wall)), append(file, millis(f.Wall)), append(inproc, millis(ip.Wall))
		if r.cli {
			work.add(dn.CPU, dn.GCs, r.cat.Runs)
		}
		return nil
	})
	if err == nil && !r.cli {
		work, err = r.ownCost()
	}
	if err != nil {
		return err
	}
	m["cli.overhead_frac"] = 1 - Median(inproc)/Median(devnull)
	m["cli.devnull_over_file"] = Median(devnull) / Median(file)
	m["process.cpu_us_per_run"] = micros(work.cpu) / float64(work.runs)
	m["process.gc_per_pass"] = float64(work.gcs) / float64(work.passes)
	return nil
}

// processCost totals what the process doing a workload's passes spent.
type processCost struct {
	cpu               time.Duration
	gcs, passes, runs int
}

func (c *processCost) add(cpu time.Duration, gcs, runs int) {
	c.cpu += cpu
	c.gcs += gcs
	c.passes++
	c.runs += runs
}

// ownCost measures an in-process workload's own passes from inside the
// process running them.
func (r *runner) ownCost() (processCost, error) {
	var c processCost
	err := repeat(3, probeBox, func() error {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		gc0, cpu0 := ms.NumGC, processCPU()
		p, err := r.pass()
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		c.add(processCPU()-cpu0, int(ms.NumGC-gc0), p.Runs)
		return nil
	})
	return c, err
}

// processCPU is this process's user plus system CPU time so far.
func processCPU() time.Duration {
	ru := selfUsage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probeObs measures the observability the CLI can attach, on the
// in-process form of the workload: the metrics registry against none,
// and the Chrome tracer on top of the registry.
func (r *runner) probeObs(m map[string]float64, _ []engineRun) error {
	tracePath := filepath.Join(r.env.Work, "obs.trace.json")
	defer os.Remove(tracePath)
	configs := []telemetry{{noRegistry: true}, {}, {tracePath: tracePath}}
	walls := make([][]float64, len(configs))
	// The order rotates every round, so each configuration follows each
	// other one equally often and none always pays for the garbage the
	// tracer leaves behind.
	round := 0
	err := repeat(len(configs), 3*probeBox, func() error {
		for k := range configs {
			i := (round + k) % len(configs)
			p, _, err := r.suitePass(nil, configs[i])
			if err != nil {
				return err
			}
			walls[i] = append(walls[i], millis(p.Wall))
		}
		round++
		return nil
	})
	m["obs.registry_overhead_frac"] = Median(walls[1])/Median(walls[0]) - 1
	m["obs.tracer_overhead_frac"] = Median(walls[2])/Median(walls[1]) - 1
	return err
}
