package coord

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/core/obs"
	"repro/internal/core/sched"
)

// The source gives up on the coordinator only after failures have
// been continuous for a real outage, not a blip: at least minFailures
// consecutive failed round trips spanning at least twice the lease TTL
// (floored at minOutage). The span rule makes the tolerance uniform
// whether failures are fast (connection refused, milliseconds each) or
// slow (packet blackhole, one HTTP timeout each).
const (
	minFailures = 5
	minOutage   = 30 * time.Second
)

// Source adapts a registered Client to the scheduler's JobSource seam:
// Next claims jobs (polling while the queue is momentarily empty),
// Complete uploads outcomes, and a background heartbeat renews every
// in-flight lease at a third of the TTL so a healthy worker never
// loses one. Create it with NewSource, and Close it after the suite
// run returns.
type Source struct {
	cl   *Client
	jobs []sched.Job
	// tr, when non-nil, records claim/renew/complete round trips as
	// spans on the TIDCoord and TIDUpload trace rows.
	tr *obs.Tracer

	mu        sync.Mutex
	inflight  map[int]bool
	failures  int       // consecutive failed round trips
	failSince time.Time // start of the current failure streak
	err       error     // first fatal transport error

	// Completions are uploaded off the dispatcher's worker goroutines:
	// Complete enqueues and returns, so a worker starts its next run
	// while the previous result is still on the wire, and the claim
	// window frees immediately. The lease stays held (inflight, so the
	// heartbeat renews it) until the upload lands. The queue is an
	// unbounded spill (guarded by mu, signalled through upSignal) —
	// never a bounded channel, which would block worker goroutines
	// behind a slow or briefly unreachable coordinator and stall the
	// whole run on the wire.
	pending   []completion  // guarded by mu
	upClosed  bool          // guarded by mu; set once by Close
	upSignal  chan struct{} // capacity 1: "pending or upClosed changed"
	closeOnce sync.Once
	uploaded  sync.WaitGroup

	stop chan struct{}
	done sync.WaitGroup
}

// completion is one outcome queued for upload.
type completion struct {
	seq int
	out Outcome
}

// SourceOption configures NewSource.
type SourceOption func(*Source)

// WithSourceTracer records the source's coordinator round trips —
// claim, renew, complete — as spans on the dedicated coordinator and
// uploader trace rows, so queue latency is visible next to the run
// spans in one trace file.
func WithSourceTracer(tr *obs.Tracer) SourceOption {
	return func(s *Source) { s.tr = tr }
}

// NewSource returns a source over the registered client. jobs must be
// the full catalog, index-aligned with the coordinator's (Register
// already verified the labels match).
func NewSource(cl *Client, jobs []sched.Job, opts ...SourceOption) (*Source, error) {
	if cl.WorkerID() == "" {
		return nil, errors.New("coord: source needs a registered client")
	}
	s := &Source{
		cl:       cl,
		jobs:     jobs,
		inflight: make(map[int]bool),
		upSignal: make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	if s.tr != nil {
		s.tr.NameThread(obs.TIDCoord, "coordinator")
		s.tr.NameThread(obs.TIDUpload, "uploader")
	}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		s.heartbeat()
	}()
	s.uploaded.Add(1)
	go func() {
		defer s.uploaded.Done()
		s.uploader()
	}()
	return s, nil
}

// Close flushes the pending completion uploads, then stops the
// heartbeat. Call it after the dispatcher returns (it is idempotent;
// nothing may call Complete afterwards).
func (s *Source) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.upClosed = true
		s.mu.Unlock()
		s.wakeUploader()
		s.uploaded.Wait()
		close(s.stop)
	})
	s.done.Wait()
}

// Err returns the first fatal transport error, if the coordinator was
// lost mid-run. The worker's partial results up to that point are
// still valid; the error tells the operator this worker stopped early.
func (s *Source) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// fail records one failed round trip; it returns true once the
// failure streak has lasted a real outage and the source should give
// up.
func (s *Source) fail(err error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return true
	}
	now := time.Now()
	if s.failures == 0 {
		s.failSince = now
	}
	s.failures++
	outage := 2 * s.cl.LeaseTTL()
	if outage < minOutage {
		outage = minOutage
	}
	if s.failures >= minFailures && now.Sub(s.failSince) >= outage {
		s.err = fmt.Errorf("coord: coordinator unreachable for %s (%d attempts): %w",
			now.Sub(s.failSince).Round(time.Second), s.failures, err)
		return true
	}
	return false
}

// Next implements sched.JobSource: it claims the next job and returns
// ok=false when the queue drains or the coordinator is lost. The
// server long-polls "wait" claims (holding the request until a
// completion or requeue), so the re-claim after a wait is nearly
// immediate; only transport errors back off exponentially, up to the
// server-suggested cadence.
func (s *Source) Next() (sched.SourcedJob, bool) {
	maxPoll := s.cl.PollInterval()
	backoff := time.Millisecond
	for {
		claimStart := time.Now()
		idx, status, err := s.cl.Claim()
		if s.tr != nil {
			s.span(obs.TIDCoord, "claim", claimStart, claimResult(idx, status, err))
		}
		switch {
		case err != nil:
			if s.fail(err) {
				return sched.SourcedJob{}, false
			}
		case status == ClaimGranted:
			if idx >= len(s.jobs) {
				// A coordinator serving a bigger catalog than this
				// worker was built with; Register should have caught
				// it, so treat it as fatal rather than guessing.
				s.mu.Lock()
				s.err = fmt.Errorf("coord: claimed index %d outside the %d-job catalog", idx, len(s.jobs))
				s.mu.Unlock()
				return sched.SourcedJob{}, false
			}
			s.mu.Lock()
			s.failures = 0
			s.failSince = time.Time{}
			if s.inflight[idx] {
				// Our own lease expired mid-execution and the requeue
				// came straight back to us. The claim re-acquires the
				// lease (the job stays inflight, so the heartbeat
				// resumes renewing it); do NOT hand the job to the
				// dispatcher again — it is already running here.
				s.mu.Unlock()
				continue
			}
			s.inflight[idx] = true
			s.mu.Unlock()
			return sched.SourcedJob{Job: s.jobs[idx], Seq: idx}, true
		case status == ClaimDrained:
			return sched.SourcedJob{}, false
		default: // ClaimWait: the server already held the request
			s.mu.Lock()
			s.failures = 0
			s.mu.Unlock()
			backoff = time.Millisecond
		}
		select {
		case <-s.stop:
			return sched.SourcedJob{}, false
		case <-time.After(backoff):
		}
		if err != nil {
			if backoff *= 2; backoff > maxPoll {
				backoff = maxPoll
			}
		}
	}
}

// span records one coordinator round trip on a reserved trace row.
// Callers check s.tr first, so that the span's arguments are built
// only when a tracer is attached.
func (s *Source) span(tid int, name string, start time.Time, args map[string]string) {
	s.tr.Span(tid, "coord", name, start, time.Since(start), args)
}

// claimResult annotates a claim span with its outcome.
func claimResult(idx int, status ClaimStatus, err error) map[string]string {
	switch {
	case err != nil:
		return map[string]string{"result": "error"}
	case status == ClaimGranted:
		return map[string]string{"result": "granted", "index": strconv.Itoa(idx)}
	case status == ClaimDrained:
		return map[string]string{"result": "drained"}
	}
	return map[string]string{"result": "wait"}
}

// Complete implements sched.JobSource: the outcome is encoded on the
// calling (worker) goroutine and queued for the uploader, so the
// worker moves on to its next run while the result travels. A
// completion that ultimately cannot be delivered is not fatal to the
// suite — the lease expires and another worker redoes the job — but
// it burns this source's failure budget so a dead coordinator
// eventually stops the claim loop too.
func (s *Source) Complete(sj sched.SourcedJob, cr sched.CampaignResult) {
	out, err := outcomeFromResult(cr)
	if err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		delete(s.inflight, sj.Seq)
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	s.pending = append(s.pending, completion{seq: sj.Seq, out: out})
	s.mu.Unlock()
	s.wakeUploader()
}

// wakeUploader nudges the uploader without ever blocking the caller:
// the signal channel holds one token, and a token already in flight
// covers any number of enqueues, because the uploader drains pending
// to empty each time it wakes.
func (s *Source) wakeUploader() {
	select {
	case s.upSignal <- struct{}{}:
	default:
	}
}

// nextUpload blocks until a completion is available (returning it) or
// the queue is closed and empty (returning ok=false).
func (s *Source) nextUpload() (completion, bool) {
	for {
		s.mu.Lock()
		if len(s.pending) > 0 {
			c := s.pending[0]
			s.pending[0] = completion{}
			s.pending = s.pending[1:]
			if len(s.pending) == 0 {
				// The backing array is fully consumed; release it so a
				// burst's spill is not pinned for the rest of the run.
				s.pending = nil
			}
			s.mu.Unlock()
			return c, true
		}
		closed := s.upClosed
		s.mu.Unlock()
		if closed {
			return completion{}, false
		}
		<-s.upSignal
	}
}

// uploader drains the completion queue, retrying each upload a few
// times. The job stays inflight — its lease renewed by the heartbeat —
// until its upload lands, so a slow link never costs a lease. Once the
// source has declared the coordinator lost, remaining uploads get one
// attempt each with no sleeps, so Close returns promptly instead of
// burning the retry budget on a queue of known-undeliverable results.
func (s *Source) uploader() {
	for {
		c, ok := s.nextUpload()
		if !ok {
			return
		}
		attempts := 3
		if s.Err() != nil {
			attempts = 1
		}
		var err error
		for attempt := 0; attempt < attempts; attempt++ {
			start := time.Now()
			var dup bool
			dup, err = s.cl.Complete(c.seq, c.out)
			result := "ok"
			switch {
			case err != nil:
				result = "error"
			case dup:
				result = "duplicate"
			}
			if s.tr != nil {
				s.span(obs.TIDUpload, "complete", start,
					map[string]string{"index": strconv.Itoa(c.seq), "result": result})
			}
			if err == nil {
				break
			}
			if attempt < attempts-1 {
				time.Sleep(s.cl.PollInterval())
			}
		}
		s.mu.Lock()
		delete(s.inflight, c.seq)
		if err == nil {
			s.failures = 0
		}
		s.mu.Unlock()
		if err != nil {
			s.fail(err)
		}
	}
}

// heartbeat renews every in-flight lease at a third of the TTL.
func (s *Source) heartbeat() {
	interval := s.cl.LeaseTTL() / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.mu.Lock()
		indices := make([]int, 0, len(s.inflight))
		for i := range s.inflight {
			indices = append(indices, i)
		}
		s.mu.Unlock()
		if len(indices) == 0 {
			continue
		}
		renewStart := time.Now()
		lost, err := s.cl.Renew(indices)
		if s.tr != nil {
			s.span(obs.TIDCoord, "renew", renewStart, map[string]string{
				"leases": strconv.Itoa(len(indices)), "lost": strconv.Itoa(len(lost)),
			})
		}
		if err != nil {
			s.fail(err)
			continue
		}
		s.mu.Lock()
		s.failures = 0
		s.mu.Unlock()
	}
}
