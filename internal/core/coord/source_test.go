package coord_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core/coord"
	"repro/internal/core/sched"
)

// TestSourceCompleteNeverBlocks pins the spill-queue fix: a worker
// enqueueing completions while the coordinator is unreachable (here: a
// complete endpoint that hangs) must never block, no matter how many
// results pile up — the old bounded upload channel stalled the whole
// dispatcher at its capacity.
func TestSourceCompleteNeverBlocks(t *testing.T) {
	t.Parallel()
	jobs, catalog := suiteCatalog(t)
	co := coord.New(catalog, coord.Options{LeaseTTL: time.Minute})
	inner := coord.NewServer(co)
	gate := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/coord/complete" {
			<-gate
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	cl := register(t, srv.URL, "spill", catalog)
	for range catalog {
		if _, status, err := cl.Claim(); err != nil || status != coord.ClaimGranted {
			t.Fatalf("claim = (%v, %v)", status, err)
		}
	}
	src, err := coord.NewSource(cl, jobs)
	if err != nil {
		t.Fatal(err)
	}

	// Far more completions than the old channel capacity (128), all
	// enqueued while the uploader is stuck behind the gate. Error
	// outcomes keep the payloads trivial; first-write-wins dedups the
	// repeats server-side once the gate opens.
	const n = 200
	enqueued := make(chan struct{})
	go func() {
		defer close(enqueued)
		for i := 0; i < n; i++ {
			seq := i % len(jobs)
			src.Complete(sched.SourcedJob{Job: jobs[seq], Seq: seq},
				sched.CampaignResult{Job: jobs[seq], Err: errors.New("synthetic")})
		}
	}()
	select {
	case <-enqueued:
	case <-time.After(10 * time.Second):
		t.Fatal("Complete blocked with the coordinator unreachable — the spill queue is bounded")
	}

	close(gate)
	src.Close()
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	st := co.Status()
	if st.Done != len(catalog) || st.Duplicates != n-len(catalog) {
		t.Errorf("after flush: %d done / %d duplicates, want %d/%d", st.Done, st.Duplicates, len(catalog), n-len(catalog))
	}
}
