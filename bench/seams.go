package bench

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core/coord"
	"repro/internal/core/inject"
	"repro/internal/core/obs"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// The benchmark sees each layer only through public seams — the
// scheduler's Cache and JobSource interfaces, Job.Build, the
// coordinator's Journal, and the HTTP handlers it mounts itself — and
// records a span around every call it routes through them.

// tracedCache records every probe and write-back of a sched.Cache.
// place tells it which span a call on a fingerprint belongs to.
type tracedCache struct {
	next       sched.Cache
	rec        *Recorder
	layer      string
	place      func(fp string) (parent, lane int)
	gets, hits atomic.Int64
}

func (c *tracedCache) Get(fp string) (*inject.Result, bool) {
	parent, lane := c.place(fp)
	id := c.rec.Begin(c.layer+".get", parent, lane, "")
	res, ok := c.next.Get(fp)
	c.rec.End(id)
	c.gets.Add(1)
	if ok {
		c.hits.Add(1)
	}
	return res, ok
}

func (c *tracedCache) Put(fp, label string, res *inject.Result) error {
	parent, lane := c.place(fp)
	id := c.rec.Begin(c.layer+".put", parent, lane, label)
	err := c.next.Put(fp, label, res)
	c.rec.End(id)
	return err
}

// planSpans turns each job's planning into spans: "inject.plan" runs
// from the call to Job.Build until the dispatcher announces the job
// planned (or failed), and "sched.build" covers Build itself. The
// dispatcher probes the cache under the job's source fingerprint inside
// that window, so given the fingerprints it also knows which plan such
// a probe belongs to, whichever worker makes it.
type planSpans struct {
	rec   *Recorder
	place func() (parent, lane int)
	fps   map[string]string // job label -> source fingerprint
	mu    sync.Mutex
	open  map[string]int // job label -> plan span in progress
	byFP  map[string]int // source fingerprint -> plan span in progress
}

func newPlanSpans(rec *Recorder, place func() (int, int), fps map[string]string) *planSpans {
	return &planSpans{rec: rec, place: place, fps: fps, open: make(map[string]int), byFP: make(map[string]int)}
}

// wrap returns jobs whose Build records the spans.
func (p *planSpans) wrap(jobs []sched.Job) []sched.Job {
	out := make([]sched.Job, len(jobs))
	for i, j := range jobs {
		build, label := j.Build, j.Label()
		j.Build = func() inject.Campaign {
			parent, lane := p.place()
			plan := p.rec.Begin("inject.plan", parent, lane, label)
			b := p.rec.Begin("sched.build", plan, lane, label)
			c := build()
			p.rec.End(b)
			p.mu.Lock()
			p.open[label] = plan
			if fp, ok := p.fps[label]; ok {
				p.byFP[fp] = plan
			}
			p.mu.Unlock()
			return c
		}
		out[i] = j
	}
	return out
}

// event closes a job's plan span; pass it as SuiteOptions.OnEvent.
func (p *planSpans) event(ev sched.Event) {
	if ev.Kind != sched.EventPlanned && ev.Kind != sched.EventDone {
		return
	}
	label := ev.Job.Label()
	p.mu.Lock()
	id := p.open[label]
	delete(p.open, label)
	delete(p.byFP, p.fps[label])
	p.mu.Unlock()
	p.rec.End(id)
}

// planFor is the plan span in progress whose job has source
// fingerprint fp, or 0.
func (p *planSpans) planFor(fp string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.byFP[fp]
}

// sourceFingerprints maps each job's label to its source fingerprint
// under the suite's default engine options, as the dispatcher computes
// it.
func sourceFingerprints(jobs []sched.Job) map[string]string {
	fps := make(map[string]string, len(jobs))
	for _, j := range jobs {
		opt := inject.Options{}
		if j.Engine != nil {
			opt = *j.Engine
		}
		if fp, ok := inject.SourceFingerprint(j.Build(), opt, j.Name, j.Variant); ok {
			fps[j.Label()] = fp
		}
	}
	return fps
}

// fleetLane follows one fleet worker. Each worker runs a dispatcher with
// a single worker goroutine, so it does one thing at a time and every
// span it records nests under the job it is working on.
type fleetLane struct {
	rec  *Recorder
	lane int
	// root is the worker's span; set before the worker starts.
	root int
	job  atomic.Int64
	plan *planSpans
}

func newFleetLane(rec *Recorder, lane int, fps map[string]string) *fleetLane {
	l := &fleetLane{rec: rec, lane: lane}
	l.plan = newPlanSpans(rec, func() (int, int) { return l.parent(""), lane }, fps)
	return l
}

// parent is the innermost span in progress on the lane for a call on
// fingerprint fp: the job's plan when fp is its source fingerprint and
// it is still planning, else the job, else the worker.
func (l *fleetLane) parent(fp string) int {
	if p := l.plan.planFor(fp); p != 0 {
		return p
	}
	if j := int(l.job.Load()); j != 0 {
		return j
	}
	return l.root
}

func (l *fleetLane) place(fp string) (int, int) { return l.parent(fp), l.lane }

// source wraps the lane's coordinator job source: "coord.next" is the
// wait for a claim, and "inject.job" spans a job from its claim to its
// completion report.
func (l *fleetLane) source(next sched.JobSource) sched.JobSource {
	return &tracedSource{next: next, l: l}
}

type tracedSource struct {
	next sched.JobSource
	l    *fleetLane
}

func (s *tracedSource) Next() (sched.SourcedJob, bool) {
	id := s.l.rec.Begin("coord.next", s.l.root, s.l.lane, "")
	sj, ok := s.next.Next()
	s.l.rec.End(id)
	if ok {
		s.l.job.Store(int64(s.l.rec.Begin("inject.job", s.l.root, s.l.lane, sj.Job.Label())))
	}
	return sj, ok
}

func (s *tracedSource) Complete(sj sched.SourcedJob, cr sched.CampaignResult) {
	job := int(s.l.job.Load())
	id := s.l.rec.Begin("coord.complete", job, s.l.lane, sj.Job.Label())
	s.next.Complete(sj, cr)
	s.l.rec.End(id)
	s.l.rec.End(job)
	s.l.job.Store(0)
}

// tracedJournal records the coordinator's journal writes; they run
// under the coordinator's lock, inside a request handler.
type tracedJournal struct {
	next coord.Journal
	rec  *Recorder
}

func (j *tracedJournal) Append(r *coord.JournalRecord) error {
	id := j.rec.Begin("coord.journal_append", 0, laneServer, r.Op)
	err := j.next.Append(r)
	j.rec.End(id)
	return err
}

func (j *tracedJournal) Sync() error {
	id := j.rec.Begin("coord.journal_sync", 0, laneServer, "")
	err := j.next.Sync()
	j.rec.End(id)
	return err
}

func (j *tracedJournal) Rewrite(recs []*coord.JournalRecord) error {
	id := j.rec.Begin("coord.journal_rewrite", 0, laneServer, "")
	err := j.next.Rewrite(recs)
	j.rec.End(id)
	return err
}

// tracedHandler records every request the mounted server handles.
func tracedHandler(rec *Recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := rec.Begin(routeSpan(r), 0, laneServer, "")
		next.ServeHTTP(w, r)
		rec.End(id)
	})
}

// routeSpan names a request after the layer and operation it reaches.
func routeSpan(r *http.Request) string {
	if op, ok := strings.CutPrefix(r.URL.Path, coord.Prefix); ok {
		return "coord.serve_" + op
	}
	if fp, ok := strings.CutPrefix(r.URL.Path, "/v1/campaigns/"); ok && store.IsFingerprint(fp) {
		return "storehttp.serve_" + strings.ToLower(r.Method)
	}
	return "http.serve_other"
}

// coordHandler mounts a coordinator and its store exactly as `eptest
// -serve-coord` does — the claim protocol, the campaign API with the
// cache transport behind it, the status, findings and metrics
// endpoints, and the store server at the root — recording every request
// when rec is not nil.
//
// The mux is a copy of the one runServeCoord builds in
// cmd/eptest/coord.go (lines 130-140: the mux.Handle calls after "mux :=
// http.NewServeMux()"), which is not exported. It must be kept equal to
// that one, or the fleet workload and the coord probe measure a server
// eptest no longer runs.
func coordHandler(rec *Recorder, co *coord.Coordinator, st *store.Store, reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle(coord.Prefix, obs.Middleware(reg, coord.NewServer(co)))
	storeSrv := store.NewServer(st, store.WithServerMetrics(reg))
	campaigns := coord.CampaignAPI(co, storeSrv, reg)
	mux.Handle("/v1/campaigns", campaigns)
	mux.Handle("/v1/campaigns/", campaigns)
	mux.Handle("GET /v1/status", coord.StatusHandler(co))
	mux.Handle("GET /v1/findings", coord.FindingsHandler(co))
	mux.Handle("GET /status", coord.StatusPage(co))
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("/", storeSrv)
	if rec == nil {
		return mux
	}
	return tracedHandler(rec, mux)
}
