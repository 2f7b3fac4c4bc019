package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterGaugeConcurrent hammers one counter and one gauge from
// many goroutines; run under -race this pins the atomic hot path, and
// the totals pin correctness.
func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops", "kind", "mixed")
	g := r.Gauge("test_depth", "depth")

	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Set(perG)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != perG {
		t.Fatalf("gauge = %d, want %d", got, perG)
	}
	// The same (name, labels) lookup must return the same series.
	if r.Counter("test_ops_total", "ops", "kind", "mixed") != c {
		t.Fatal("second lookup returned a different counter")
	}
	// Negative deltas never decrease a counter.
	c.Add(-5)
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter after Add(-5) = %d, want unchanged %d", got, goroutines*perG)
	}
}

// TestHistogramBucketBoundaries pins the le (upper-inclusive) bucket
// semantics on exact boundary values.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.01, 0.1, 1})

	for _, v := range []float64{0.005, 0.01, 0.02, 0.1, 0.5, 1, 3} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 4 || !math.IsInf(bounds[3], 1) {
		t.Fatalf("bounds = %v, want 3 finite + Inf", bounds)
	}
	// le=0.01 holds 0.005 and the boundary value 0.01 itself.
	want := []int64{2, 4, 6, 7}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative[%d] (le=%g) = %d, want %d (all: %v)", i, bounds[i], cum[i], want[i], cum)
		}
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
	if got, wantSum := h.Sum(), 0.005+0.01+0.02+0.1+0.5+1+3; math.Abs(got-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, wantSum)
	}
}

// TestHistogramConcurrent drives Observe from many goroutines; under
// -race this pins the lock-free sum CAS loop.
func TestHistogramConcurrent(t *testing.T) {
	h := NewRegistry().Histogram("test_h", "", []float64{1, 2})
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	if got, want := h.Sum(), 0.5*goroutines*perG; math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

// TestNilSafety: every handle and registry method must be a no-op on
// nil so instrumentation can run unconditionally.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a", "").Inc()
	r.Gauge("b", "").Set(3)
	r.Histogram("c", "", DefBuckets).Observe(1)
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	if got := r.Flat(); got != nil {
		t.Fatalf("nil Flat = %v, want nil", got)
	}
	var tr *Tracer
	tr.Span(0, "cat", "name", time.Now(), 0, nil)
	tr.NameThread(1, "x")
	if err := tr.Close(); err != nil {
		t.Fatalf("nil tracer Close: %v", err)
	}
}

// goldenExposition is the exact Prometheus text a fixed registry must
// render — the wire format CI's curl check and real Prometheus servers
// scrape.
const goldenExposition = `# HELP eptest_runs_executed_total Injection runs executed by this process.
# TYPE eptest_runs_executed_total counter
eptest_runs_executed_total 293
# HELP eptest_cache_requests_total Cache probes by tier and result.
# TYPE eptest_cache_requests_total counter
eptest_cache_requests_total{result="hit",tier="source"} 7
eptest_cache_requests_total{result="miss",tier="plan"} 13
# HELP eptest_queue_depth Tasks queued or executing in the dispatcher.
# TYPE eptest_queue_depth gauge
eptest_queue_depth 4
# HELP eptest_run_seconds Injection run duration.
# TYPE eptest_run_seconds histogram
eptest_run_seconds_bucket{le="0.01"} 1
eptest_run_seconds_bucket{le="0.1"} 3
eptest_run_seconds_bucket{le="+Inf"} 4
eptest_run_seconds_sum 1.62
eptest_run_seconds_count 4
`

// TestPrometheusGolden pins the text exposition format byte for byte.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("eptest_runs_executed_total", "Injection runs executed by this process.").Add(293)
	r.Counter("eptest_cache_requests_total", "Cache probes by tier and result.", "tier", "source", "result", "hit").Add(7)
	r.Counter("eptest_cache_requests_total", "Cache probes by tier and result.", "result", "miss", "tier", "plan").Add(13)
	r.Gauge("eptest_queue_depth", "Tasks queued or executing in the dispatcher.").Set(4)
	h := r.Histogram("eptest_run_seconds", "Injection run duration.", []float64{0.01, 0.1})
	for _, v := range []float64{0.01, 0.05, 0.06, 1.5} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenExposition {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, goldenExposition)
	}
	// Exposition must be stable across repeated renders.
	var again bytes.Buffer
	r.WritePrometheus(&again)
	if again.String() != buf.String() {
		t.Fatal("second render differs from the first")
	}
}

// TestJSONSnapshot checks the -metrics-json schema: decodable, carries
// the schema tag, and histograms encode +Inf as a string.
func TestJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("eptest_steals_total", "Steals.").Add(5)
	r.Histogram("eptest_run_seconds", "Run duration.", []float64{0.1}).Observe(0.05)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Schema  string `json:"schema"`
		Metrics []struct {
			Name    string   `json:"name"`
			Type    string   `json:"type"`
			Value   *int64   `json:"value"`
			Count   *int64   `json:"count"`
			Sum     *float64 `json:"sum"`
			Buckets []struct {
				LE    json.RawMessage `json:"le"`
				Count int64           `json:"count"`
			} `json:"buckets"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot does not decode: %v\n%s", err, buf.String())
	}
	if snap.Schema != MetricsSchemaVersion {
		t.Fatalf("schema = %q, want %q", snap.Schema, MetricsSchemaVersion)
	}
	if len(snap.Metrics) != 2 {
		t.Fatalf("metrics = %d, want 2", len(snap.Metrics))
	}
	if snap.Metrics[0].Name != "eptest_steals_total" || snap.Metrics[0].Value == nil || *snap.Metrics[0].Value != 5 {
		t.Fatalf("counter entry wrong: %+v", snap.Metrics[0])
	}
	h := snap.Metrics[1]
	if h.Count == nil || *h.Count != 1 || h.Sum == nil || len(h.Buckets) != 2 {
		t.Fatalf("histogram entry wrong: %+v", h)
	}
	if string(h.Buckets[1].LE) != `"+Inf"` {
		t.Fatalf("last bucket le = %s, want \"+Inf\"", h.Buckets[1].LE)
	}

	flat := r.Flat()
	if flat["eptest_steals_total"] != 5 {
		t.Fatalf("Flat counter = %v", flat)
	}
	if flat["eptest_run_seconds_count"] != 1 {
		t.Fatalf("Flat histogram count = %v", flat)
	}
}

// TestLabelEscaping: label values with quotes and backslashes must
// render as valid Prometheus text.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "", "job", `a"b\c`).Inc()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `job="a\"b\\c"`) {
		t.Fatalf("escaping wrong:\n%s", buf.String())
	}
}
