package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// Child roles: every round of timed passes, and the traced run, runs in
// a fresh child process, so each set-up is measured from a cold start
// and no round inherits another's heap or caches.
const (
	RoleRound = "round"
	RoleTrace = "trace"
)

// RoundResult is what one child process reports.
type RoundResult struct {
	Workload string `json:"workload"`
	// Setup runs from the child's start to ready for the first timed
	// pass, its warm-up pass included.
	Setup  time.Duration `json:"setup"`
	Passes []Pass        `json:"passes"`
	// MaxRSSKB is the peak RSS of the process doing the work: the child
	// itself, or for a CLI workload the largest eptest process.
	MaxRSSKB int64 `json:"max_rss_kb"`
	// AllocsPerRun is the heap allocations per delivered run of the
	// round's in-process passes: the timed passes themselves, or for a
	// CLI workload one pass of its in-process equivalent.
	AllocsPerRun float64 `json:"allocs_per_run"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// maxTraceSpans caps the spans a traced run writes to its trace file;
// the metrics use every span.
const maxTraceSpans = 100000

// RunChild runs one child's share of a benchmark: the workload's set-up,
// then timed passes for segment (a round), or alternating untraced and
// traced passes for segment followed by the layer probes (the traced
// run, whose spans go to tracePath). start is when the process began.
func RunChild(env *Env, role, workload string, segment time.Duration, tracePath string, start time.Time) RoundResult {
	res := RoundResult{Workload: workload}
	if err := runChild(env, role, workload, segment, tracePath, start, &res); err != nil {
		res.Error = err.Error()
	}
	return res
}

func runChild(env *Env, role, workload string, segment time.Duration, tracePath string, start time.Time, res *RoundResult) error {
	r, err := newRunner(workload, env)
	if err != nil {
		return err
	}
	if err := r.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	res.Setup = time.Since(start)
	if role == RoleTrace {
		return r.traceRun(segment, tracePath, res)
	}
	t0 := time.Now()
	a0, runs := mallocs(), 0
	for {
		p, err := r.pass()
		if err != nil {
			return err
		}
		res.Passes = append(res.Passes, p)
		res.MaxRSSKB = max(res.MaxRSSKB, p.MaxRSSKB)
		runs += p.Runs
		// Stop when another pass as long as this one would overrun the
		// segment; a pass longer than the segment still runs once.
		if time.Since(t0)+p.Wall > segment {
			break
		}
	}
	if r.cli {
		res.AllocsPerRun, err = r.equivalentAllocs()
		return err
	}
	res.AllocsPerRun = float64(mallocs()-a0) / float64(runs)
	res.MaxRSSKB = selfUsage().Maxrss
	return nil
}

// equivalentAllocs counts the heap allocations per run of a CLI
// workload's in-process equivalent — sched.RunSuite over the same
// catalog and store, findings folded and the report rendered — since an
// eptest process does not report its own count for every workload. The
// first pass is not counted: it builds the world images this process
// has not needed yet.
func (r *runner) equivalentAllocs() (float64, error) {
	if _, _, err := r.suitePass(nil, telemetry{}); err != nil {
		return 0, err
	}
	a0 := mallocs()
	p, _, err := r.suitePass(nil, telemetry{})
	if err != nil {
		return 0, err
	}
	return float64(mallocs()-a0) / float64(p.Runs), nil
}

// selfUsage is this process's resource usage so far.
func selfUsage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage fails only on a bad who or pointer, neither possible here.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// traceRun alternates untraced and traced passes of the workload's
// in-process form for segment, then runs the layer probes.
func (r *runner) traceRun(segment time.Duration, tracePath string, res *RoundResult) error {
	rec := NewRecorder()
	var untraced, traced []Pass
	var pts []*passTrace
	t0 := time.Now()
	for {
		u, _, err := r.traced(nil)
		if err != nil {
			return err
		}
		t, pt, err := r.traced(rec)
		if err != nil {
			return err
		}
		untraced, traced, pts = append(untraced, u), append(traced, t), append(pts, pt)
		if time.Since(t0)+u.Wall+t.Wall > segment {
			break
		}
	}
	res.Passes = append(untraced, traced...)
	res.Layers = traceMetrics(untraced, traced, pts)
	if err := writeTrace(tracePath, r.name, pts); err != nil {
		return err
	}
	// Nothing refers to the recorded spans any more: collecting them now
	// lets the probes run on a small heap, so what the collector costs
	// them does not depend on how many passes were traced.
	runtime.GC()
	probed, err := r.probe()
	if err != nil {
		return err
	}
	for k, v := range probed {
		res.Layers[k] = v
	}
	return nil
}

// writeTrace writes the traced passes' spans, up to maxTraceSpans, as a
// Chrome trace.
func writeTrace(path, workload string, pts []*passTrace) error {
	var spans []Span
	for _, pt := range pts {
		if len(spans)+len(pt.Spans) > maxTraceSpans {
			break
		}
		spans = append(spans, pt.Spans...)
	}
	return WriteChromeTrace(path, "eptbench "+workload, spans)
}

// childGrace bounds how long a child may run past its measured segment
// — set-up, the pass in flight and, in a traced run, the probes — before
// it is killed and its round counts as failed.
const childGrace = 2 * time.Minute

// Launcher starts the child processes of one benchmark invocation: this
// executable again, with the child flags cmd/eptbench defines.
type Launcher struct {
	Self   string
	Eptest string
	Out    string
	Seed   int64
}

// Run runs one child to completion and returns its result.
func (l *Launcher) Run(role, workload string, segment time.Duration, tracePath string) RoundResult {
	res := RoundResult{Workload: workload}
	workRoot := filepath.Join(l.Out, "work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		res.Error = err.Error()
		return res
	}
	work, err := os.MkdirTemp(workRoot, workload+"-")
	if err != nil {
		res.Error = err.Error()
		return res
	}
	defer os.RemoveAll(work)
	ctx, cancel := context.WithTimeout(context.Background(), segment+childGrace)
	defer cancel()
	cmd := exec.CommandContext(ctx, l.Self,
		"-child", role, "-workload", workload,
		"-seed", strconv.FormatInt(l.Seed, 10),
		"-eptest", l.Eptest, "-work", work, "-segment", segment.String(), "-trace-out", tracePath)
	cmd.SysProcAttr = orphanKill()
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	if i := bytes.LastIndexByte(bytes.TrimRight(out, "\n"), '\n'); i >= 0 {
		out = out[i+1:]
	}
	if err := json.Unmarshal(out, &res); err != nil && runErr == nil {
		runErr = fmt.Errorf("child result: %w", err)
	}
	if runErr != nil && res.Error == "" {
		res.Error = fmt.Sprintf("%s child for %s: %v", role, workload, runErr)
	}
	return res
}

// WorkloadReport aggregates one workload's rounds.
type WorkloadReport struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Workers   int                `json:"workers"`
	Rounds    []RoundResult      `json:"rounds"`
	Metrics   map[string]float64 `json:"metrics"`
	WallMS    Summary            `json:"wall_ms"`
	SetupS    Summary            `json:"setup_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
}

// Aggregate derives the end-to-end metrics from a workload's rounds:
// the median pass wall over every pass, runs delivered per second of
// the timed passes, and the medians over rounds of set-up time, peak
// RSS and allocations per run. A round that failed counts as one failed
// attempt.
func Aggregate(workload string, rounds []RoundResult) *WorkloadReport {
	rep := &WorkloadReport{Workload: workload, Rounds: rounds, Metrics: map[string]float64{}}
	var wall, setup, rss, allocs []float64
	var runs int
	var busy time.Duration
	for _, rr := range rounds {
		rep.Attempted += len(rr.Passes)
		if rr.Error != "" {
			rep.Attempted++
			rep.Failed++
			rep.Errors = append(rep.Errors, rr.Error)
			continue
		}
		for _, p := range rr.Passes {
			wall = append(wall, millis(p.Wall))
			runs += p.Runs
			busy += p.Wall
		}
		setup = append(setup, secs(rr.Setup))
		rss = append(rss, float64(rr.MaxRSSKB)/1024)
		allocs = append(allocs, rr.AllocsPerRun)
	}
	rep.WallMS, rep.SetupS = Summarize(wall), Summarize(setup)
	if len(wall) > 0 {
		rep.Metrics["suite_p50_ms"] = rep.WallMS.Median
		rep.Metrics["runs_per_sec"] = float64(runs) / busy.Seconds()
		rep.Metrics["setup_s"] = rep.SetupS.Median
		rep.Metrics["max_rss_mb"] = Median(rss)
		rep.Metrics["allocs_per_run"] = Median(allocs)
	}
	return rep
}

// WriteJSON writes v, indented, to path.
func WriteJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
