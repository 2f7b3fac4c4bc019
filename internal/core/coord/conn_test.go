package coord_test

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core/coord"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
)

// TestSourceReusesConnections runs a worker whose claims, completion
// uploads and lease renewals overlap — every request is held a few
// milliseconds, and the lease is short enough to renew many times — and
// pins that it reuses its connections, however many requests it makes.
// It has three in flight at most (a claim, an upload and a heartbeat);
// as in the store client's test, net/http may dial one more for each
// while handing a freed connection over, so the bound is six.
func TestSourceReusesConnections(t *testing.T) {
	t.Parallel()
	jobs := apps.SuiteJobs()
	catalog := make([]string, len(jobs))
	for i, j := range jobs {
		catalog[i] = j.Label()
	}
	co := coord.New(catalog, coord.Options{LeaseTTL: 60 * time.Millisecond})
	inner := coord.NewServer(co)
	var conns, requests, renewals atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if r.URL.Path == "/v1/coord/renew" {
			renewals.Add(1)
		}
		time.Sleep(5 * time.Millisecond)
		inner.ServeHTTP(w, r)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	// Slow each job down so the run spans several heartbeats.
	slow := make([]sched.Job, len(jobs))
	for i, j := range jobs {
		slow[i] = j
		slow[i].Build = func() inject.Campaign {
			time.Sleep(60 * time.Millisecond)
			return j.Build()
		}
	}
	cl := register(t, srv.URL, "reuse", catalog)
	src, err := coord.NewSource(cl, slow)
	if err != nil {
		t.Fatal(err)
	}
	sched.RunSuiteFrom(src, sched.SuiteOptions{Workers: 2})
	src.Close()
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if st := co.Status(); st.Done != len(catalog) {
		t.Fatalf("%d of %d jobs done", st.Done, len(catalog))
	}
	if renewals.Load() == 0 {
		t.Fatal("no lease was renewed; the run did not overlap heartbeats with claims and uploads")
	}
	if n := conns.Load(); n > 2*3 {
		t.Errorf("%d requests (%d renewals) opened %d connections, want at most 6", requests.Load(), renewals.Load(), n)
	}
}
