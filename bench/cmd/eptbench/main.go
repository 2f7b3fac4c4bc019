// Command eptbench is the repository's reference benchmark. It builds
// cmd/eptest from the checkout, runs the workloads declared in
// BENCHMARK.json — each as a closed loop with one client, every pass
// checked against pinned output — and prints every declared metric by
// name with its unit. Run it through bench/run.sh, which keeps the
// build cache and all output under .bench_build/:
//
//	bash bench/run.sh --workload base --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload fleet --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh                  # all workloads, interleaved, then traced
//	bash bench/run.sh --check          # two interleaved sets, compared
//
// With --workload, the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The exit
// code is non-zero when any output was wrong or any pass failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/bench"
)

func main() {
	start := time.Now()
	os.Exit(run(start))
}

// options are the parsed command-line flags.
type options struct {
	root, out, workload string
	seed                int64
	seconds, rounds     int
	trace               int
	check               bool
}

// Rounds per workload: a run of one workload, and an interleaved set.
const (
	runRoundsPerWorkload = 4
	setRoundsPerWorkload = 16
)

// workers is every workload's concurrency.
func workers() int { return min(runtime.NumCPU(), 4) }

func run(start time.Time) int {
	var o options
	fs := flag.NewFlagSet("eptbench", flag.ContinueOnError)
	fs.StringVar(&o.root, "root", ".", "repository checkout to build and measure; results go to ROOT/.bench_build")
	fs.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json); empty runs every workload interleaved")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the workloads' inputs")
	fs.IntVar(&o.seconds, "seconds", 0, "measured seconds per workload (default 20 with -workload, 40 without)")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced run and reports the per-layer metrics instead")
	fs.BoolVar(&o.check, "check", false, "run two interleaved sets back to back and compare every end-to-end median against its bound")
	child := fs.String("child", "", "internal: run one child process in this role")
	eptest := fs.String("eptest", "", "internal: the built eptest binary")
	work := fs.String("work", "", "internal: the child's scratch directory")
	segment := fs.Duration("segment", 0, "internal: the child's measured time")
	traceOut := fs.String("trace-out", "", "internal: the traced child's trace file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *child != "" {
		env := &bench.Env{Eptest: *eptest, Work: *work, Workers: workers(), Seed: o.seed, Base: bench.BaseCatalog, Matrix: bench.MatrixCatalog}
		res := bench.RunChild(env, *child, o.workload, *segment, *traceOut, start)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "eptbench:", err)
			return 1
		}
		return 0
	}
	if err := o.resolve(); err != nil {
		fmt.Fprintln(os.Stderr, "eptbench:", err)
		return 2
	}
	spec, err := bench.LoadSpec(o.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eptbench:", err)
		return 2
	}
	if o.workload != "" && !spec.HasWorkload(o.workload) {
		fmt.Fprintf(os.Stderr, "eptbench: workload %q is not declared in BENCHMARK.json\n", o.workload)
		return 2
	}
	l, err := o.launcher()
	if err != nil {
		fmt.Fprintln(os.Stderr, "eptbench:", err)
		return 1
	}
	switch {
	case o.check:
		return runCheck(o, spec, l)
	case o.workload == "":
		return runAll(o, spec, l)
	case o.trace == 1:
		return runTraced(o, spec, l)
	}
	return runRounds(o, spec, l)
}

// resolve fills in the defaults that depend on the mode and makes the
// paths absolute, since children run with their own working directory.
func (o *options) resolve() error {
	seconds := 20
	o.rounds = runRoundsPerWorkload
	if o.workload == "" || o.check {
		seconds, o.rounds = 40, setRoundsPerWorkload
	}
	if o.seconds <= 0 {
		o.seconds = seconds
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, not %d", o.trace)
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		return err
	}
	o.root, o.out = root, filepath.Join(root, ".bench_build")
	return nil
}

// launcher builds eptest and prepares to start children.
func (o *options) launcher() (*bench.Launcher, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(o.out, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	eptest, err := bench.BuildEptest(o.root, bin)
	if err != nil {
		return nil, err
	}
	return &bench.Launcher{Self: self, Eptest: eptest, Out: o.out, Seed: o.seed}, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]bench.Value `json:"metrics"`
}

// finish prints the result line and returns the exit code.
func finish(r result) int {
	if r.Metrics == nil {
		r.Metrics = map[string]bench.Value{}
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eptbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !r.Correct {
		return 1
	}
	return 0
}

// runRounds measures one workload's end-to-end metrics over rounds of
// fresh processes.
func runRounds(o options, spec *bench.Spec, l *bench.Launcher) int {
	segment := time.Duration(o.seconds) * time.Second / time.Duration(o.rounds)
	var rounds []bench.RoundResult
	for i := 0; i < o.rounds; i++ {
		rounds = append(rounds, l.Run(bench.RoleRound, o.workload, segment, ""))
	}
	rep := report(o, o.workload, rounds)
	printEndToEnd(spec, rep)
	metrics, err := bench.Select(spec.EndToEnd, rep.Metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eptbench:", err)
	}
	return finish(result{Correct: rep.Failed == 0 && err == nil, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: metrics})
}

// report aggregates rounds, prints their errors and saves the results.
func report(o options, workload string, rounds []bench.RoundResult) *bench.WorkloadReport {
	rep := bench.Aggregate(workload, rounds)
	rep.Seed, rep.Workers = o.seed, workers()
	for _, e := range rep.Errors {
		fmt.Fprintf(os.Stderr, "eptbench: %s: %s\n", workload, e)
	}
	path := filepath.Join(o.out, fmt.Sprintf("results-%s-seed%d.json", workload, o.seed))
	if err := bench.WriteJSON(path, rep); err != nil {
		fmt.Fprintln(os.Stderr, "eptbench:", err)
	}
	return rep
}

// runTraced runs one workload's traced run and reports its per-layer
// metrics.
func runTraced(o options, spec *bench.Spec, l *bench.Launcher) int {
	res := traced(o, l, o.workload, time.Duration(o.seconds)*time.Second)
	if res.Error != "" {
		fmt.Fprintf(os.Stderr, "eptbench: %s: %s\n", o.workload, res.Error)
	}
	printLayers(spec, o.workload, res.Layers)
	metrics, err := bench.Select(spec.PerLayer, res.Layers)
	if err != nil && res.Error == "" {
		fmt.Fprintln(os.Stderr, "eptbench:", err)
	}
	r := result{Correct: res.Error == "" && err == nil, Attempted: len(res.Passes), Metrics: metrics}
	if res.Error != "" {
		r.Attempted++
		r.Failed = 1
	}
	return finish(r)
}

// traced runs the traced child for a workload.
func traced(o options, l *bench.Launcher, workload string, d time.Duration) bench.RoundResult {
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", workload, o.seed))
	res := l.Run(bench.RoleTrace, workload, d, path)
	if res.Error == "" {
		fmt.Printf("trace: %s (open in https://ui.perfetto.dev)\n", path)
	}
	return res
}

// interleave runs one set — rounds in which every workload runs once, in
// an order that rotates every round, so slow drift of a shared host
// lands on every workload alike — and prints each workload's metrics.
func interleave(o options, spec *bench.Spec, l *bench.Launcher) map[string]*bench.WorkloadReport {
	segment := time.Duration(o.seconds) * time.Second / time.Duration(o.rounds)
	rounds := make(map[string][]bench.RoundResult)
	n := len(spec.Workloads)
	for r := 0; r < o.rounds; r++ {
		for k := 0; k < n; k++ {
			w := spec.Workloads[(r+k)%n].Name
			rounds[w] = append(rounds[w], l.Run(bench.RoleRound, w, segment, ""))
		}
	}
	reps := make(map[string]*bench.WorkloadReport)
	for _, w := range spec.Workloads {
		reps[w.Name] = report(o, w.Name, rounds[w.Name])
		printEndToEnd(spec, reps[w.Name])
	}
	return reps
}

// traceSeconds is how long the traced run measures each workload after
// an interleaved set.
const traceSeconds = 5 * time.Second

// runAll runs every workload interleaved, then each one's traced run.
func runAll(o options, spec *bench.Spec, l *bench.Launcher) int {
	failed := 0
	for _, rep := range interleave(o, spec, l) {
		failed += rep.Failed
	}
	for _, w := range spec.Workloads {
		res := traced(o, l, w.Name, traceSeconds)
		if res.Error != "" {
			fmt.Fprintf(os.Stderr, "eptbench: %s: %s\n", w.Name, res.Error)
			failed++
			continue
		}
		printLayers(spec, w.Name, res.Layers)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// runCheck runs two interleaved sets and compares every end-to-end
// median: the two must agree within the metric's bound.
func runCheck(o options, spec *bench.Spec, l *bench.Launcher) int {
	first := interleave(o, spec, l)
	second := interleave(o, spec, l)
	fmt.Printf("%-12s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	ok := true
	for _, w := range spec.Workloads {
		a, b := first[w.Name], second[w.Name]
		if a.Failed+b.Failed > 0 {
			fmt.Printf("%-12s %d failed pass(es)\n", w.Name, a.Failed+b.Failed)
			ok = false
		}
		for _, m := range spec.EndToEnd {
			x, y := a.Metrics[m.Name], b.Metrics[m.Name]
			agree := bench.Agree(x, y, m.Bound)
			verdict := "ok"
			if !agree {
				verdict, ok = "DIFFERS", false
			}
			fmt.Printf("%-12s %-14s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, x, y, 100*bench.RelDiff(x, y), 100*m.Bound, verdict)
		}
	}
	if !ok {
		fmt.Println("check: the two sets disagree")
		return 1
	}
	fmt.Println("check: the two sets agree within every bound")
	return 0
}

// printEndToEnd prints a workload's end-to-end metrics, with the pass
// wall's spread, tail and sample count.
func printEndToEnd(spec *bench.Spec, rep *bench.WorkloadReport) {
	fmt.Printf("%s: %d pass(es) in %d round(s), %d failed\n", rep.Workload, rep.WallMS.N, len(rep.Rounds), rep.Failed)
	for _, m := range spec.EndToEnd {
		v, ok := rep.Metrics[m.Name]
		if !ok {
			fmt.Printf("  %-22s unmeasured\n", m.Name)
			continue
		}
		fmt.Printf("  %-22s %14.4f %-8s (%s is better, bound %.0f%%)\n", m.Name, v, m.Unit, m.Better, 100*m.Bound)
	}
	w := rep.WallMS
	tail := "no tail: fewer than 20 passes"
	if w.TailPct > 0 {
		tail = fmt.Sprintf("p%g %.3f ms", w.TailPct, w.Tail)
	}
	fmt.Printf("  pass wall: median %.3f ms, quartiles %.3f..%.3f ms, %s, n=%d\n", w.Median, w.Q1, w.Q3, tail, w.N)
	s := rep.SetupS
	fmt.Printf("  set-up: median %.4f s, quartiles %.4f..%.4f s, n=%d\n", s.Median, s.Q1, s.Q3, s.N)
}

// printLayers prints a workload's per-layer metrics in name order.
func printLayers(spec *bench.Spec, workload string, layers map[string]float64) {
	units := map[string]string{}
	for _, m := range spec.PerLayer {
		units[m.Name] = m.Unit
	}
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s per layer:\n", workload)
	for _, k := range names {
		fmt.Printf("  %-30s %14.4f %s\n", k, layers[k], units[k])
	}
}
