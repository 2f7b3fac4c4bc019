package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core/coord"
	"repro/internal/core/findings"
	"repro/internal/core/obs"
)

func TestTelemetryFlagValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-trace", "t.json", "-campaign", "turnin"}, "-trace does not apply to -campaign"},
		{[]string{"-metrics-json", "m.json", "-list"}, "-metrics-json does not apply to -list"},
		{[]string{"-pprof", "localhost:0", "-campaign", "turnin"}, "-pprof does not apply to -campaign"},
		{[]string{"-pprof", "localhost:0", "-merge", "d"}, "-pprof does not apply to -merge"},
	}
	for _, tc := range cases {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("run(%v) exit = %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("run(%v) stderr = %q, want %q", tc.args, errb.String(), tc.want)
		}
	}
}

// TestTelemetryLeavesReportUnchanged runs the same suite slice with and
// without every telemetry flag; the report on stdout must stay
// byte-identical (the flags only append their own "wrote ..." trailer
// lines), and the trace and metrics files must parse as their schemas.
func TestTelemetryLeavesReportUnchanged(t *testing.T) {
	t.Parallel()
	var plain, errb bytes.Buffer
	if code := run([]string{"-all", "-j", "4", "-filter", "turnin*"}, &plain, &errb); code != 0 {
		t.Fatalf("plain exit = %d, stderr = %s", code, errb.String())
	}

	dir := t.TempDir()
	traceFile := filepath.Join(dir, "trace.json")
	metricsFile := filepath.Join(dir, "metrics.json")
	findingsFile := filepath.Join(dir, "findings.json")
	var obsOut, obsErr bytes.Buffer
	code := run([]string{
		"-all", "-j", "4", "-filter", "turnin*",
		"-trace", traceFile, "-metrics-json", metricsFile, "-findings", findingsFile, "-pprof", "127.0.0.1:0",
	}, &obsOut, &obsErr)
	if code != 0 {
		t.Fatalf("telemetry exit = %d, stderr = %s", code, obsErr.String())
	}
	if !strings.Contains(obsErr.String(), "pprof listening on") {
		t.Errorf("stderr missing pprof banner: %q", obsErr.String())
	}

	rest, found := strings.CutPrefix(obsOut.String(), plain.String())
	if !found {
		t.Fatalf("telemetry run's report diverges from the plain run:\n--- plain ---\n%s\n--- telemetry ---\n%s",
			plain.String(), obsOut.String())
	}
	for _, want := range []string{"wrote trace (", "wrote metrics snapshot to", "finding record(s) to"} {
		if !strings.Contains(rest, want) {
			t.Errorf("trailer missing %q: %q", want, rest)
		}
	}

	// The findings export decodes under its schema and carries records —
	// the turnin suite has known violations.
	frep, err := findings.ReadFile(findingsFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(frep.Findings) == 0 {
		t.Error("findings export is empty for the turnin slice")
	}

	// The trace file is a valid Chrome trace_event array with run spans
	// and the process-name metadata; the metrics dump is an
	// eptest-metrics/1 snapshot counting the executed runs.
	if runSpans, procMeta := traceSpans(t, traceFile); runSpans == 0 || procMeta == 0 {
		t.Errorf("trace has %d run spans and %d process_name records, want both > 0", runSpans, procMeta)
	}
	// The suite ran cold, so every injection in the report executed.
	runs, _ := runsExecuted(t, metricsFile)
	if want := reportInjected(t, plain.String()); runs == 0 || runs != want {
		t.Errorf("metrics snapshot reports %d executed runs, want the report's %d injections", runs, want)
	}
}

// TestTelemetryCountsSharedRuns runs a matrix slice, whose cells of one
// program plan many equivalent runs: the executed and shared counters
// together account for every injection in the report, and some runs
// were shared.
func TestTelemetryCountsSharedRuns(t *testing.T) {
	t.Parallel()
	metricsFile := filepath.Join(t.TempDir(), "metrics.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-all", "-matrix", "-filter", "lpr*", "-j", "4", "-metrics-json", metricsFile}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	runs, shared := runsExecuted(t, metricsFile)
	if want := reportInjected(t, out.String()); runs+shared != want || shared == 0 {
		t.Errorf("metrics snapshot reports %d executed + %d shared runs, want %d injections with some shared", runs, shared, want)
	}
}

// reportInjected sums the "injected" column of a suite report's
// summary table: the number of injection runs the suite performed.
func reportInjected(t *testing.T, report string) int64 {
	t.Helper()
	lines := strings.Split(report, "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "campaign ") {
		t.Fatalf("report does not open with the summary table:\n%s", report)
	}
	var total int64
	for _, line := range lines[1:] {
		if line == "" {
			break
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Fatalf("malformed summary row %q", line)
		}
		n, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			t.Fatalf("summary row %q: injected column: %v", line, err)
		}
		total += n
	}
	return total
}

// TestCoordWorkerTelemetry pins that a coordinator worker's dispatcher
// records the same telemetry as a local -all run: its -metrics-json
// counts the executed runs and its -trace carries run spans.
func TestCoordWorkerTelemetry(t *testing.T) {
	t.Parallel()
	storeDir := t.TempDir()
	url := startCoordServer(t, storeDir, "-filter", "lpr-create-site*")
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "trace.json")
	metricsFile := filepath.Join(dir, "metrics.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-all", "-j", "2", "-filter", "lpr-create-site*", "-coord-url", url,
		"-trace", traceFile, "-metrics-json", metricsFile}, &out, &errb); code != 0 {
		t.Fatalf("worker exit = %d, stderr = %s", code, errb.String())
	}
	if runSpans, _ := traceSpans(t, traceFile); runSpans == 0 {
		t.Error("coordinator worker's trace has no run spans")
	}
	if runs, _ := runsExecuted(t, metricsFile); runs == 0 {
		t.Error("coordinator worker's metrics snapshot reports 0 executed runs")
	}
	waitMergedArtifact(t, storeDir)
}

// traceSpans decodes a Chrome trace_event file and counts its run
// spans and process_name metadata records.
func traceSpans(t *testing.T, path string) (runSpans, procMeta int) {
	t.Helper()
	tb, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Cat  string `json:"cat"`
		Ph   string `json:"ph"`
	}
	if err := json.Unmarshal(tb, &events); err != nil {
		t.Fatalf("trace file does not decode: %v", err)
	}
	for _, ev := range events {
		if ev.Ph == "X" && ev.Cat == "run" {
			runSpans++
		}
		if ev.Ph == "M" && ev.Name == "process_name" {
			procMeta++
		}
	}
	return runSpans, procMeta
}

// runsExecuted decodes an eptest-metrics/1 snapshot and returns its
// eptest_runs_executed_total and eptest_runs_shared_total. It also
// checks the per-phase latency split: eptest_run_phase_seconds holds
// one observation per executed run for each of the world, exec and
// compare phases.
func runsExecuted(t *testing.T, path string) (runs, shared int64) {
	t.Helper()
	mb, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Schema  string `json:"schema"`
		Metrics []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Value  *int64            `json:"value"`
			Count  int64             `json:"count"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(mb, &snap); err != nil {
		t.Fatalf("metrics file does not decode: %v", err)
	}
	if snap.Schema != obs.MetricsSchemaVersion {
		t.Errorf("metrics schema = %q, want %q", snap.Schema, obs.MetricsSchemaVersion)
	}
	phases := map[string]int64{}
	for _, m := range snap.Metrics {
		switch {
		case m.Name == "eptest_runs_executed_total" && m.Value != nil:
			runs = *m.Value
		case m.Name == "eptest_runs_shared_total" && m.Value != nil:
			shared = *m.Value
		case m.Name == "eptest_run_phase_seconds":
			phases[m.Labels["phase"]] = m.Count
		}
	}
	for _, ph := range []string{"world", "exec", "compare"} {
		if phases[ph] != runs {
			t.Errorf("eptest_run_phase_seconds{phase=%q} count = %d, want %d (one observation per executed run)", ph, phases[ph], runs)
		}
	}
	return runs, shared
}

// get fetches path from the coordinator with the bearer token and
// returns status code, content type and body.
func get(t *testing.T, url, path, token string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest("GET", url+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestCoordObservabilitySurface drives a real coordinator + worker and
// checks the three live endpoints the CI smoke also curls: /metrics
// (Prometheus text, behind the bearer token), /v1/status (JSON
// snapshot) and /status (HTML page).
func TestCoordObservabilitySurface(t *testing.T) {
	t.Parallel()
	const token = "s3cret"
	storeDir := t.TempDir()
	url := startCoordServer(t, storeDir, "-filter", "lpr-create-site*", "-auth-token", token)

	if code, _, _ := get(t, url, "/metrics", ""); code != http.StatusUnauthorized {
		t.Errorf("unauthenticated /metrics = %d, want 401", code)
	}

	var out, errb bytes.Buffer
	if code := run([]string{"-all", "-j", "4", "-filter", "lpr-create-site*",
		"-coord-url", url, "-worker", "probe", "-auth-token", token}, &out, &errb); code != 0 {
		t.Fatalf("worker exit = %d, stderr = %s", code, errb.String())
	}

	code, ct, body := get(t, url, "/metrics", token)
	if code != http.StatusOK || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics = %d %q", code, ct)
	}
	for _, want := range []string{
		"# TYPE eptest_coord_jobs gauge",
		`eptest_coord_jobs{phase="done"} 2`,
		`eptest_coord_completions_total{result="recorded"} 2`,
		"# TYPE eptest_http_requests_total counter",
		"# TYPE eptest_store_entries_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, ct, body = get(t, url, "/v1/status", token)
	if code != http.StatusOK || ct != "application/json" {
		t.Fatalf("/v1/status = %d %q", code, ct)
	}
	var st coord.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/v1/status does not decode: %v", err)
	}
	if st.Schema != coord.StatusSchemaVersion || !st.Drained || st.Done != 2 || len(st.Workers) != 1 {
		t.Errorf("status = %+v, want drained 2-job queue with 1 worker", st)
	}
	if st.Workers[0].Name != "probe" || st.Workers[0].RunsDone == 0 {
		t.Errorf("worker status = %+v, want probe with runs recorded", st.Workers[0])
	}

	code, ct, body = get(t, url, "/status", token)
	if code != http.StatusOK || !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("/status = %d %q", code, ct)
	}
	for _, want := range []string{"eptest coordinator", "probe", "(drained)"} {
		if !strings.Contains(body, want) {
			t.Errorf("/status page missing %q", want)
		}
	}

	// The findings surface sits behind the same bearer token and serves
	// the canonical findings encoding; lpr-create-site's vulnerable
	// variant is a known violator, so the report is non-empty.
	if code, _, _ := get(t, url, "/v1/findings", ""); code != http.StatusUnauthorized {
		t.Errorf("unauthenticated /v1/findings = %d, want 401", code)
	}
	code, ct, body = get(t, url, "/v1/findings", token)
	if code != http.StatusOK || ct != "application/json" {
		t.Fatalf("/v1/findings = %d %q", code, ct)
	}
	frep, err := findings.Decode([]byte(body))
	if err != nil {
		t.Fatalf("/v1/findings does not decode: %v", err)
	}
	if len(frep.Findings) == 0 {
		t.Error("/v1/findings is empty after a drained violating run")
	}
	waitMergedArtifact(t, storeDir)
}
