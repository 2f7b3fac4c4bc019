package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRouteLabel pins the bounded-cardinality route normalisation.
func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/v1/meta":             "meta",
		"/v1/status":           "status",
		"/status":              "status-page",
		"/metrics":             "metrics",
		"/v1/campaigns/abc123": "campaigns",
		"/v1/coord/claim":      "coord.claim",
		"/v1/coord/register":   "coord.register",
		"/v1/anything-else":    "other",
		"/":                    "other",
	}
	for path, want := range cases {
		if got := RouteLabel(path); got != want {
			t.Errorf("RouteLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestMiddleware checks the server-side request counter and latency
// histogram, including the status-class label.
func TestMiddleware(t *testing.T) {
	r := NewRegistry()
	h := Middleware(r, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/v1/campaigns/missing" {
			http.Error(w, "no", http.StatusNotFound)
			return
		}
		w.Write([]byte("ok"))
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	for _, path := range []string{"/v1/meta", "/v1/meta", "/v1/campaigns/missing"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	if got := r.Counter("eptest_http_requests_total", "", "route", "meta", "method", "GET", "code", "2xx").Value(); got != 2 {
		t.Fatalf("meta 2xx count = %d, want 2", got)
	}
	if got := r.Counter("eptest_http_requests_total", "", "route", "campaigns", "method", "GET", "code", "4xx").Value(); got != 1 {
		t.Fatalf("campaigns 4xx count = %d, want 1", got)
	}
	if got := r.Histogram("eptest_http_request_seconds", "", DefBuckets, "route", "meta").Count(); got != 2 {
		t.Fatalf("meta latency samples = %d, want 2", got)
	}
}

// TestRoundTripper checks the client-side mirror metrics, including
// the "error" code for transport failures.
func TestRoundTripper(t *testing.T) {
	r := NewRegistry()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	cl := &http.Client{Transport: RoundTripper(r, nil)}
	resp, err := cl.Get(srv.URL + "/v1/coord/claim")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := r.Counter("eptest_http_client_requests_total", "", "route", "coord.claim", "code", "2xx").Value(); got != 1 {
		t.Fatalf("client 2xx count = %d, want 1", got)
	}

	srv.Close() // connection refused from here on
	if _, err := cl.Get(srv.URL + "/v1/coord/claim"); err == nil {
		t.Fatal("expected a transport error after server close")
	}
	if got := r.Counter("eptest_http_client_requests_total", "", "route", "coord.claim", "code", "error").Value(); got != 1 {
		t.Fatalf("client error count = %d, want 1", got)
	}
}

// TestRegistryHandler serves /metrics and checks the content type and
// a sample line.
func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("eptest_runs_executed_total", "Runs.").Add(3)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), "eptest_runs_executed_total 3") {
		t.Fatalf("body missing sample:\n%s", b)
	}
}

// TestServePprof: the opt-in profiling endpoint binds, serves a
// profile index, and exposes the registry at /metrics.
func TestServePprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("eptest_runs_executed_total", "Runs.").Inc()
	addr, err := ServePprof("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status = %d", resp.StatusCode)
	}
	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "eptest_runs_executed_total 1") {
		t.Fatalf("pprof /metrics missing registry:\n%s", b)
	}
}
