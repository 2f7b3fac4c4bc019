package sched

import (
	"errors"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core/inject"
	"repro/internal/core/obs"
)

// Dispatcher schedules a suite at run granularity: every Job is
// expanded into its inject.ExecPlan run units, and the units flow
// through per-worker deques with work stealing, so a worker that
// drains its own queue rebalances onto whichever job still has runs
// outstanding — no static partition, no idle workers while an
// expensive campaign hogs one queue.
//
// Equivalent runs execute once per pass: when a planned run repeats
// one that another plan of the same world already executes (see
// runTable), it is not queued; its slot receives a copy of that run's
// outcome as soon as the run lands. No worker blocks on another's run.
//
// Determinism is preserved by construction: each run writes its
// outcome into its plan-order slot, and each campaign's result is
// assembled exactly as the sequential engine would have, so the suite
// report is byte-identical no matter how the runs interleave.
type Dispatcher struct {
	// Workers is the worker-goroutine count — the maximum number of
	// concurrently executing plan/run units. Zero or negative means
	// GOMAXPROCS.
	Workers int
	// Engine is the injection-engine options applied to every job that
	// does not carry its own Job.Engine override.
	Engine inject.Options
	// OnEvent, when non-nil, receives progress events. Calls are
	// serialised.
	OnEvent func(Event)
	// Cache, when non-nil, makes the suite incremental. A job whose
	// source fingerprint (inject.SourceFingerprint) is cached replays
	// without even its clean run; otherwise the job plans, and a plan-
	// fingerprint hit replays without executing injection runs. Fresh
	// results are written back under both fingerprints. The Cache may
	// be local (store.Store) or a network transport (store.Client).
	Cache Cache
	// Metrics, when non-nil, receives fleet telemetry: run/plan/steal
	// counters, cache probes by tier and result, queue depth and run
	// latency. Purely observational — a nil registry and a populated one
	// yield byte-identical suite results.
	Metrics *obs.Registry
	// Tracer, when non-nil, records each plan and injection run as a
	// span tree (run ⊃ world/exec/compare, plus cache get/put spans) on
	// the executing worker's tid row.
	Tracer *obs.Tracer
}

// WorkerStats counts one dispatcher worker's activity.
type WorkerStats struct {
	// Plans is the number of campaigns this worker planned.
	Plans int
	// Runs is the number of injection runs this worker executed.
	Runs int
	// Shared is the number of run slots this worker filled with the
	// outcome of an equivalent run instead of executing them.
	Shared int
	// Steals counts tasks this worker took from another worker's deque.
	Steals int
}

// DispatchStats aggregates a dispatcher pass for the report's
// scheduling section. Totals are deterministic for a given suite;
// the per-worker split and steal count depend on runtime scheduling.
type DispatchStats struct {
	// Workers is the worker-goroutine count used.
	Workers int
	// Plans, Runs, Shared and Steals total the per-worker counters.
	// Runs+Shared is the number of injections the planned campaigns
	// hold; Runs alone is how many of them were executed.
	Plans, Runs, Shared, Steals int
	// PerWorker holds each worker's counters, indexed by worker id.
	PerWorker []WorkerStats
}

// jobState is one job's in-flight scheduling state.
type jobState struct {
	seq  int // index in the full catalog (merge key in sourced mode)
	job  Job
	cr   *CampaignResult
	plan *inject.ExecPlan

	// mu guards out, the progress counters and world; progress events
	// are emitted under it so a job's Done counts arrive in order.
	mu    sync.Mutex
	out   []inject.Injection
	done  int        // runs completed
	left  int        // runs not yet completed
	world *worldRuns // the shared run table, once the world has one
}

// dispatchState is the shared coordination state of one Run call.
type dispatchState struct {
	d   *Dispatcher
	res *SuiteResult

	// mu guards the deques, the remaining counter and the sourced-mode
	// fields; cond wakes idle workers when work is pushed and the
	// feeder when a claimed job completes.
	mu        sync.Mutex
	cond      *sync.Cond
	deques    []*deque
	remaining int // tasks queued or executing

	// Sourced mode: jobs arrive from a JobSource via the feeder
	// goroutine instead of being seeded up front.
	src      JobSource
	drained  bool        // the source will yield no more jobs
	inflight int         // jobs claimed from the source, not yet completed
	window   int         // claim-ahead bound on inflight
	claimed  []*jobState // every job this dispatcher claimed, in claim order

	stats  []WorkerStats // one slot per worker, owned by that worker
	emitMu sync.Mutex

	table runTable

	m dispatchMetrics
}

// dispatchMetrics is the dispatcher's metric handles, resolved once per
// Run/RunFrom pass so the hot path is a few atomic adds. Every handle
// is nil when the dispatcher has no registry; obs handles are nil-safe,
// so call sites record unconditionally.
type dispatchMetrics struct {
	plans, runs, shared *obs.Counter
	steals              *obs.Counter
	srcHit, srcMiss     *obs.Counter
	planHit, planMiss   *obs.Counter
	writeOK, writeErr   *obs.Counter
	queueDepth          *obs.Gauge
	runSeconds          *obs.Histogram

	phaseWorld, phaseExec, phaseCompare *obs.Histogram
}

// phaseFor maps an inject phase name to its histogram handle. Unknown
// names (future phases) return nil, which Observe tolerates.
func (m *dispatchMetrics) phaseFor(name string) *obs.Histogram {
	switch name {
	case "world":
		return m.phaseWorld
	case "exec":
		return m.phaseExec
	case "compare":
		return m.phaseCompare
	}
	return nil
}

// resolve looks up every dispatch metric in r (nil-safe).
func (m *dispatchMetrics) resolve(r *obs.Registry) {
	m.plans = r.Counter("eptest_plans_total", "Campaigns planned (clean run + fault-list enumeration).")
	m.runs = r.Counter("eptest_runs_executed_total", "Injection runs executed by this process.")
	m.shared = r.Counter("eptest_runs_shared_total", "Injection runs copied from an equivalent run of the same pass instead of executing.")
	m.steals = r.Counter("eptest_steals_total", "Tasks taken from another worker's deque.")
	const reqHelp = "Cache probes by tier and result."
	m.srcHit = r.Counter("eptest_cache_requests_total", reqHelp, "tier", "source", "result", "hit")
	m.srcMiss = r.Counter("eptest_cache_requests_total", reqHelp, "tier", "source", "result", "miss")
	m.planHit = r.Counter("eptest_cache_requests_total", reqHelp, "tier", "plan", "result", "hit")
	m.planMiss = r.Counter("eptest_cache_requests_total", reqHelp, "tier", "plan", "result", "miss")
	const wbHelp = "Cache write-backs by result."
	m.writeOK = r.Counter("eptest_cache_writebacks_total", wbHelp, "result", "ok")
	m.writeErr = r.Counter("eptest_cache_writebacks_total", wbHelp, "result", "error")
	m.queueDepth = r.Gauge("eptest_queue_depth", "Tasks queued or executing in the dispatcher.")
	m.runSeconds = r.Histogram("eptest_run_seconds", "Injection run duration.", obs.DefBuckets)
	const phaseHelp = "Injection run duration split by internal phase."
	m.phaseWorld = r.Histogram("eptest_run_phase_seconds", phaseHelp, obs.DefBuckets, "phase", "world")
	m.phaseExec = r.Histogram("eptest_run_phase_seconds", phaseHelp, obs.DefBuckets, "phase", "exec")
	m.phaseCompare = r.Histogram("eptest_run_phase_seconds", phaseHelp, obs.DefBuckets, "phase", "compare")
}

// Run dispatches the jobs and returns their results in job order.
func (d *Dispatcher) Run(jobs []Job) *SuiteResult {
	st := d.newState()
	st.drained = true // the whole catalog is seeded below; nothing more arrives
	st.res.Campaigns = make([]CampaignResult, len(jobs))

	// Seed the deques round-robin with one plan task per job; the
	// expansion into run units happens on whichever worker plans the
	// job, and stealing spreads those units from there.
	w := len(st.deques)
	for ji := range jobs {
		st.res.Campaigns[ji].Job = jobs[ji]
		js := &jobState{seq: ji, job: jobs[ji], cr: &st.res.Campaigns[ji]}
		st.deques[ji%w].push(task{js: js, run: planTask})
	}
	st.remaining = len(jobs)
	st.m.queueDepth.Set(int64(st.remaining))

	st.runWorkers()
	return st.res
}

// RunFrom dispatches jobs pulled incrementally from src: a feeder
// goroutine claims up to Workers jobs ahead of completion and workers
// schedule their runs exactly as in Run. The returned result holds the
// jobs this dispatcher claimed, in catalog (Seq) order.
func (d *Dispatcher) RunFrom(src JobSource) *SuiteResult {
	st := d.newState()
	st.src = src
	st.window = len(st.deques)

	var fwg sync.WaitGroup
	fwg.Add(1)
	go func() {
		defer fwg.Done()
		st.feed()
	}()
	st.runWorkers()
	fwg.Wait()

	sort.SliceStable(st.claimed, func(i, j int) bool { return st.claimed[i].seq < st.claimed[j].seq })
	st.res.Campaigns = make([]CampaignResult, 0, len(st.claimed))
	for i, js := range st.claimed {
		// A source may re-issue a Seq this dispatcher already ran (a
		// coordinator requeues a job whose completion upload was
		// lost); the runs are deterministic, so keep one.
		if i > 0 && st.claimed[i-1].seq == js.seq {
			continue
		}
		st.res.Campaigns = append(st.res.Campaigns, *js.cr)
	}
	return st.res
}

// newState builds the shared dispatch state for one Run/RunFrom pass.
func (d *Dispatcher) newState() *dispatchState {
	w := d.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	st := &dispatchState{
		d:      d,
		res:    &SuiteResult{},
		deques: make([]*deque, w),
		stats:  make([]WorkerStats, w),
	}
	st.cond = sync.NewCond(&st.mu)
	for i := range st.deques {
		st.deques[i] = &deque{}
	}
	st.m.resolve(d.Metrics)
	for i := 0; i < w; i++ {
		d.Tracer.NameThread(i, "worker "+strconv.Itoa(i))
	}
	return st
}

// runWorkers runs the worker goroutines to completion and folds their
// counters into the result's dispatch stats.
func (st *dispatchState) runWorkers() {
	w := len(st.deques)
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(g int) {
			defer wg.Done()
			st.worker(g)
		}(g)
	}
	wg.Wait()

	ds := DispatchStats{Workers: w, PerWorker: st.stats}
	for _, ws := range st.stats {
		ds.Plans += ws.Plans
		ds.Runs += ws.Runs
		ds.Shared += ws.Shared
		ds.Steals += ws.Steals
	}
	st.res.Dispatch = ds
}

// feed claims jobs from the source and seeds their plan tasks, never
// holding more than window incomplete claims — enough to keep every
// worker busy without hoarding jobs another machine's dispatcher could
// be draining.
func (st *dispatchState) feed() {
	rr := 0
	for {
		st.mu.Lock()
		for st.inflight >= st.window {
			st.cond.Wait()
		}
		st.mu.Unlock()

		sj, ok := st.src.Next() // blocks; must run outside the lock
		if !ok {
			st.mu.Lock()
			st.drained = true
			st.mu.Unlock()
			st.cond.Broadcast()
			return
		}
		js := &jobState{seq: sj.Seq, job: sj.Job, cr: &CampaignResult{Job: sj.Job}}
		st.mu.Lock()
		st.claimed = append(st.claimed, js)
		st.deques[rr%len(st.deques)].push(task{js: js, run: planTask})
		rr++
		st.remaining++
		st.inflight++
		st.m.queueDepth.Set(int64(st.remaining))
		st.mu.Unlock()
		st.cond.Broadcast()
	}
}

// worker is one scheduling loop: pop own work, steal when dry, park
// when the whole dispatcher is dry, exit when the suite drains.
func (st *dispatchState) worker(w int) {
	for {
		t, stolen, ok := st.next(w)
		if !ok {
			return
		}
		if stolen {
			st.stats[w].Steals++
			st.m.steals.Inc()
		}
		st.execute(w, t)
		st.finish()
	}
}

// next returns the worker's next task: its own deque bottom first,
// then a steal sweep over the other deques starting at its right
// neighbour. With nothing queued it parks on cond until either new
// work is pushed or the suite drains (remaining == 0 with a drained
// source, the only not-ok return).
func (st *dispatchState) next(w int) (t task, stolen, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if t, ok := st.deques[w].pop(); ok {
			return t, false, true
		}
		for off := 1; off < len(st.deques); off++ {
			if t, ok := st.deques[(w+off)%len(st.deques)].steal(); ok {
				return t, true, true
			}
		}
		if st.remaining == 0 && st.drained {
			return task{}, false, false
		}
		st.cond.Wait()
	}
}

// finish retires one task; the last one wakes every parked worker so
// they can observe the drained suite and exit.
func (st *dispatchState) finish() {
	st.mu.Lock()
	st.remaining--
	st.m.queueDepth.Set(int64(st.remaining))
	drained := st.remaining == 0 && st.drained
	st.mu.Unlock()
	if drained {
		st.cond.Broadcast()
	}
}

// jobDone retires one job after its result is fully recorded: in
// sourced mode the outcome is reported back to the source and the
// feeder is woken to claim a replacement.
func (st *dispatchState) jobDone(js *jobState) {
	if st.src == nil {
		return
	}
	st.src.Complete(SourcedJob{Job: js.job, Seq: js.seq}, *js.cr)
	st.mu.Lock()
	st.inflight--
	st.mu.Unlock()
	st.cond.Broadcast()
}

// emit serialises event delivery.
func (st *dispatchState) emit(ev Event) {
	if st.d.OnEvent == nil {
		return
	}
	st.emitMu.Lock()
	defer st.emitMu.Unlock()
	st.d.OnEvent(ev)
}

// execute runs one task on worker w.
func (st *dispatchState) execute(w int, t task) {
	if t.run == planTask {
		st.stats[w].Plans++
		st.m.plans.Inc()
		st.planJob(w, t.js)
		return
	}
	st.stats[w].Runs++
	st.m.runs.Inc()
	st.runOne(w, t)
}

// cacheGet probes the cache at one tier, recording the probe's outcome
// as a counter sample and a span on the worker's row.
func (st *dispatchState) cacheGet(w int, tier, fp string, hitC, missC *obs.Counter) (*inject.Result, bool) {
	start := time.Now()
	hit, found := st.d.Cache.Get(fp)
	res, c := "miss", missC
	if found {
		res, c = "hit", hitC
	}
	c.Inc()
	if st.d.Tracer != nil {
		st.d.Tracer.Span(w, "cache", "cache.get", start, time.Since(start),
			map[string]string{"tier": tier, "result": res})
	}
	return hit, found
}

// cachePut writes one entry back, recording the outcome.
func (st *dispatchState) cachePut(w int, tier, fp, label string, r *inject.Result) error {
	start := time.Now()
	err := st.d.Cache.Put(fp, label, r)
	res := "ok"
	if err != nil {
		res = "error"
		st.m.writeErr.Inc()
	} else {
		st.m.writeOK.Inc()
	}
	if st.d.Tracer != nil {
		st.d.Tracer.Span(w, "cache", "cache.put", start, time.Since(start),
			map[string]string{"tier": tier, "result": res})
	}
	return err
}

// planJob materialises one job: source-fingerprint cache probe, clean
// run and fault-list enumeration, plan-fingerprint cache probe, and —
// on a miss — expansion of the plan's runs onto the worker's own
// deque, from where idle workers steal them.
func (st *dispatchState) planJob(w int, js *jobState) {
	job := js.job
	cr := js.cr
	c := job.Build()
	engine := job.engine(st.d.Engine)

	// Source-level probe: a hit replays the campaign without even the
	// clean run (the fingerprint pins the campaign source instead of
	// the trace; see inject.SourceFingerprint for the trust caveat).
	if st.d.Cache != nil {
		if fp, ok := inject.SourceFingerprint(c, engine, job.Name, job.Variant); ok {
			cr.SourceFingerprint = fp
			if hit, found := st.cacheGet(w, "source", fp, st.m.srcHit, st.m.srcMiss); found {
				n := len(hit.Injections)
				cr.Result = hit
				cr.Cached = true
				cr.CachedSource = true
				st.emit(Event{Kind: EventPlanned, Job: job, Total: n})
				st.emit(Event{Kind: EventDone, Job: job, Done: n, Total: n, Cached: true})
				st.jobDone(js)
				return
			}
		}
	}

	planStart := time.Now()
	plan, err := inject.PrepareWith(c, engine)
	if st.d.Tracer != nil {
		label := job.Label()
		st.d.Tracer.Span(w, "plan", "plan "+label, planStart, time.Since(planStart),
			map[string]string{"campaign": label})
	}
	if err != nil {
		cr.Err = err
		st.emit(Event{Kind: EventDone, Job: job, Err: err})
		st.jobDone(js)
		return
	}
	n := plan.NumRuns()
	st.emit(Event{Kind: EventPlanned, Job: job, Total: n})

	if st.d.Cache != nil {
		fp := plan.Fingerprint(job.Name, job.Variant)
		cr.Fingerprint = fp
		if hit, found := st.cacheGet(w, "plan", fp, st.m.planHit, st.m.planMiss); found {
			cr.Result = hit
			cr.Cached = true
			// Upgrade stores written before source fingerprinting:
			// alias the entry under the source address so the next
			// run skips the clean run too.
			if cr.SourceFingerprint != "" {
				cr.CacheErr = st.cachePut(w, "source", cr.SourceFingerprint, job.Label(), hit)
			}
			st.emit(Event{Kind: EventDone, Job: job, Done: n, Total: n, Cached: true})
			st.jobDone(js)
			return
		}
	}

	js.plan = plan
	js.out = make([]inject.Injection, n)
	js.left = n
	if n == 0 {
		st.completeJob(w, js)
		return
	}
	wr := st.table.join(js)
	if wr == nil {
		st.push(w, js, n, nil)
		return
	}
	// A shared world: queue only the runs no other plan has claimed.
	// The world is set before any of the job's runs can finish, so
	// each of them settles its waiters.
	js.world = wr
	own, copied := wr.claim(js)
	st.push(w, js, len(own), own)
	if copied > 0 {
		st.stats[w].Shared += copied
		st.m.shared.Add(int64(copied))
		if st.record(js, copied) {
			st.completeJob(w, js)
		}
	}
}

// push queues k of the job's runs on worker w's deque: runs[0..k) when
// runs is nil, else the listed runs. Runs are pushed in reverse so the
// owner's LIFO pops execute in plan order; thieves steal from the top
// and take the highest-index runs.
func (st *dispatchState) push(w int, js *jobState, k int, runs []int) {
	if k == 0 {
		return
	}
	st.mu.Lock()
	for i := k - 1; i >= 0; i-- {
		run := i
		if runs != nil {
			run = runs[i]
		}
		st.deques[w].push(task{js: js, run: run})
	}
	st.remaining += k
	st.m.queueDepth.Set(int64(st.remaining))
	st.mu.Unlock()
	st.cond.Broadcast()
}

// record counts k newly filled slots of the job, emitting one progress
// event each, and reports whether they were its last.
func (st *dispatchState) record(js *jobState, k int) bool {
	js.mu.Lock()
	defer js.mu.Unlock()
	return st.recordLocked(js, k)
}

// recordLocked is record with js.mu held.
func (st *dispatchState) recordLocked(js *jobState, k int) bool {
	for i := 0; i < k; i++ {
		js.done++
		st.emit(Event{Kind: EventProgress, Job: js.job, Done: js.done, Total: len(js.out)})
	}
	js.left -= k
	return js.left == 0
}

// runOne executes a single injection run into its plan-order slot,
// copies it into the slots of equivalent runs waiting on it, and
// completes each job whose last outstanding slot it filled. With a
// tracer attached the run renders as a span tree on the worker's row:
// the run span containing its world/exec/compare phase children. With
// a metrics registry attached the same phases feed the
// eptest_run_phase_seconds histogram, one series per phase label.
func (st *dispatchState) runOne(w int, t task) {
	js := t.js
	var phase inject.PhaseFunc
	if tr := st.d.Tracer; tr != nil || st.d.Metrics != nil {
		phase = func(name string, start time.Time, d time.Duration) {
			if tr != nil {
				tr.Span(w, "run", name, start, d, nil)
			}
			st.m.phaseFor(name).Observe(d.Seconds())
		}
	}
	start := time.Now()
	inj := js.plan.RunOneObserved(t.run, phase)
	d := time.Since(start)
	st.m.runSeconds.Observe(d.Seconds())
	if st.d.Tracer != nil {
		run := strconv.Itoa(t.run)
		st.d.Tracer.Span(w, "run", js.job.Label()+"#"+run, start, d, map[string]string{
			"campaign": js.job.Label(),
			"run":      run,
			"fault":    js.plan.Planned(t.run).FaultID,
		})
	}
	js.mu.Lock()
	js.out[t.run] = inj
	wr := js.world
	last := st.recordLocked(js, 1)
	js.mu.Unlock()
	if wr != nil {
		for _, s := range wr.settle(js, t.run) {
			st.stats[w].Shared++
			st.m.shared.Inc()
			s.js.mu.Lock()
			s.js.out[s.idx] = inj
			done := st.recordLocked(s.js, 1)
			s.js.mu.Unlock()
			if done {
				st.completeJob(w, s.js)
			}
		}
	}
	if last {
		st.completeJob(w, js)
	}
}

// completeJob assembles the campaign result in plan order, writes it
// back to the cache (best effort, under both fingerprints — a failure
// on one address does not stop the other), and emits the done event.
func (st *dispatchState) completeJob(w int, js *jobState) {
	cr := js.cr
	shell := js.plan.Shell()
	shell.Injections = js.out
	cr.Result = &shell
	if st.d.Cache != nil {
		err := st.cachePut(w, "plan", cr.Fingerprint, js.job.Label(), &shell)
		if cr.SourceFingerprint != "" {
			err = errors.Join(err, st.cachePut(w, "source", cr.SourceFingerprint, js.job.Label(), &shell))
		}
		cr.CacheErr = err
	}
	n := len(js.out)
	st.emit(Event{Kind: EventDone, Job: js.job, Done: n, Total: n})
	st.jobDone(js)
}
