// Command eptest runs an environment-perturbation fault-injection campaign
// against a named target application and prints the campaign report: the
// injection list, the violations, and the two-dimensional adequacy metric.
// With -all it schedules every catalog campaign (vulnerable and fixed
// variants) as one suite through the run-granularity work-stealing
// dispatcher and prints the summary table plus the clustered violation
// findings; on a terminal, live per-campaign progress bars track the run.
//
// Suite runs scale beyond one process through the result store (see
// docs/STORE.md): -cache makes re-runs incremental by replaying campaigns
// whose fingerprint is unchanged (source-level hits skip even the clean
// run), -shard k/n runs one deterministic partition of the suite and
// writes a mergeable shard artifact into the store, and -merge recombines
// the artifacts into the exact report an unsharded run would print. Shard
// processes share nothing but the store directory, so a directory shared
// between machines spreads a static partition over them without a server.
//
// Suite runs scale to an elastic fleet through the campaign coordinator
// (see docs/COORDINATOR.md): -serve-coord serves the catalog as a
// claimable queue beside the store's cache endpoints, and -coord-url
// workers claim jobs under time-bounded leases instead of owning a static
// shard — workers may join or leave (or crash) mid-run, expired leases
// requeue automatically, and when the queue drains the coordinator
// writes a merged artifact that `eptest -merge` renders byte-identical
// to a single-process run. -auth-token protects the coordinator with a
// shared bearer token.
//
// Suite runs scale beyond the base catalog through the campaign matrix
// (see docs/ARCHITECTURE.md): -matrix expands every application into a
// deterministic grid of engine-option sweeps, site cuts, and multi-site
// compositions — an order of magnitude more campaigns — and prints a
// per-axis rollup after the suite report; -filter GLOB narrows any
// suite run to the jobs whose name/variant label matches.
//
// Every mode is observable (see docs/OBSERVABILITY.md): -trace FILE
// records each suite run as a Chrome trace_event span tree,
// -metrics-json FILE dumps the worker's metrics registry after the run,
// the coordinator exposes Prometheus text at GET /metrics (beside a live
// GET /v1/status JSON snapshot and a self-refreshing HTML page at
// GET /status), and -pprof ADDR starts the opt-in profiling
// listener on any long-running process. Performance is measured outside
// the CLI, by the reference benchmark under bench/ (`bash bench/run.sh`).
//
// Usage:
//
//	eptest -list
//	eptest -campaign NAME [-fixed] [-per-point] [-v] [-j N]
//	eptest -all [-matrix] [-filter GLOB] [-j N] [-v]
//		[-cache DIR [-shard k/n] | -coord-url URL [-worker NAME] [-auth-token TOKEN]]
//		[-trace FILE] [-metrics-json FILE] [-pprof ADDR] [-findings FILE]
//	eptest -merge DIR [-matrix] [-findings FILE]
//	eptest -serve-coord ADDR -cache DIR [-matrix] [-filter GLOB] [-lease DUR]
//		[-campaign-retention DUR] [-auth-token TOKEN] [-pprof ADDR]
//	eptest -diff OLD NEW [-diff-fail-on CLASSES]
//
// Each mode takes only the flags on its line; any other flag is refused
// with exit status 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/apps"
	"repro/internal/core/coord"
	"repro/internal/core/findings"
	"repro/internal/core/inject"
	"repro/internal/core/obs"
	"repro/internal/core/report"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// suiteConfig carries the validated -all flags into runSuite.
type suiteConfig struct {
	workers  int
	verbose  bool
	cacheDir string
	// shard, when not zero, runs one partition of the suite and writes
	// its artifact to the -cache store.
	shard sched.ShardSpec
	// matrix selects the expanded campaign matrix instead of the base
	// catalog and adds the per-axis rollup to the report.
	matrix bool
	// filter narrows the suite to jobs whose label matches the glob.
	filter string
	// coordURL makes this process an elastic worker: jobs are claimed
	// from the coordinator instead of run from a static (sharded) list,
	// and the same URL serves as the shared result cache.
	coordURL string
	// worker is the display name sent to the coordinator.
	worker string
	// authToken is the shared bearer token for remote transports.
	authToken string
	// traceFile, when set, records every run, cache round trip and
	// coordinator call as a Chrome trace_event file.
	traceFile string
	// metricsJSON, when set, dumps the worker's metrics registry to the
	// named file after the run.
	metricsJSON string
	// findingsOut, when set, writes the suite's violations as canonical
	// machine-readable finding records to the named file.
	findingsOut string
	// pprofAddr, when set, serves net/http/pprof on a side listener for
	// the duration of the run.
	pprofAddr string
	// tty enables the live progress renderer; run() sets it when
	// stdout is a terminal and -v is off.
	tty bool
}

// modes is the table of eptest's modes: each mode flag, and the flags
// that mode takes. run selects the first mode flag given a value (not
// empty, not false), in table order, and refuses every other flag set
// beside it, a second mode flag included, so no flag is ever silently
// ignored. The checks after the table are on values and on relations
// inside one mode. The Usage block above lists the same rows.
var modes = []struct{ flag, takes string }{
	{"list", ""},
	{"campaign", "fixed per-point v j"},
	{"all", "matrix filter j v cache shard coord-url worker auth-token trace metrics-json pprof findings"},
	{"merge", "matrix findings"},
	{"serve-coord", "cache matrix filter lease campaign-retention auth-token pprof"},
	{"diff", "diff-fail-on"},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eptest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		_           = fs.Bool("list", false, "list available campaigns")
		campaign    = fs.String("campaign", "", "campaign to run (see -list)")
		_           = fs.Bool("all", false, "run every catalog campaign, both variants, as one suite")
		workers     = fs.Int("j", 1, "with -campaign or -all: concurrent injection runs (must be >= 1)")
		fixed       = fs.Bool("fixed", false, "with -campaign: run against the repaired program variant")
		perPoint    = fs.Bool("per-point", false, "with -campaign: print the per-interaction-point breakdown")
		verbose     = fs.Bool("v", false, "print every injection (or, with -all, per-campaign progress and dispatcher stats)")
		cache       = fs.String("cache", "", "with -all: result-store directory; replay campaigns whose fingerprint is cached; with -serve-coord: the store the coordinator serves")
		shard       = fs.String("shard", "", "with -all and -cache: run only partition \"k/n\" of the suite and write a shard artifact to the store")
		matrix      = fs.Bool("matrix", false, "with -all or -serve-coord: run the expanded campaign matrix (option sweeps, site cuts, multi-site compositions) instead of the base catalog; with -merge: render the per-axis rollup")
		filter      = fs.String("filter", "", "with -all or -serve-coord: run only jobs whose \"name/variant\" label matches GLOB ('*' crosses the separator, e.g. 'lpr*' or '*+nodedup*')")
		merge       = fs.String("merge", "", "merge the shard artifacts in a result-store directory and print the combined suite report")
		serveCoord  = fs.String("serve-coord", "", "serve the -cache store AND the job catalog as a lease-based claim queue at ADDR for -coord-url workers (catalog selected by -matrix/-filter)")
		coordURL    = fs.String("coord-url", "", "with -all: claim jobs from a running `eptest -serve-coord` instead of owning a static shard; the same URL is used as the shared result cache")
		workerName  = fs.String("worker", "", "with -coord-url: worker name shown in the coordinator report (default host-pid)")
		authToken   = fs.String("auth-token", "", "shared bearer token: required of clients by -serve-coord, sent by -coord-url workers")
		lease       = fs.Duration("lease", coord.DefaultLeaseTTL, "with -serve-coord: claim lease TTL; a worker silent this long loses its jobs back to the queue")
		retention   = fs.Duration("campaign-retention", coord.DefaultCampaignRetention, "with -serve-coord: how long a finished named campaign's status record stays visible before it is garbage-collected (0 keeps records forever)")
		traceFile   = fs.String("trace", "", "with -all: record every injection run, cache round trip and coordinator call as a Chrome trace_event FILE (open in chrome://tracing or Perfetto)")
		metricsOut  = fs.String("metrics-json", "", "with -all: dump the worker's metrics registry (counters, gauges, histograms) to FILE after the run")
		pprofAddr   = fs.String("pprof", "", "with -all or -serve-coord: serve net/http/pprof (plus /metrics) on a side listener at ADDR (e.g. localhost:6060)")
		findingsOut = fs.String("findings", "", "with -all or -merge: write the suite's violations as canonical machine-readable finding records (schema eptest-findings/1) to FILE")
		diffOld     = fs.String("diff", "", "semantically diff two findings files: `eptest -diff OLD NEW` classifies drift as new/fixed/changed instead of byte inequality")
		diffFailOn  = fs.String("diff-fail-on", "", "with -diff: exit non-zero when the diff contains any finding in the named drift classes (comma-separated from new, changed, fixed; or 'any'/'none')")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var mode, takes string
	for _, m := range modes {
		if v := fs.Lookup(m.flag).Value.String(); v != "" && v != "false" {
			mode, takes = m.flag, m.takes
			break
		}
	}
	if mode == "" {
		fmt.Fprintln(stderr, "eptest: -campaign required (or -list / -all)")
		fs.Usage()
		return 2
	}
	var newPath string
	if mode == "diff" {
		if fs.NArg() == 0 {
			fmt.Fprintln(stderr, "eptest: -diff OLD needs exactly one NEW findings file as its argument: `eptest -diff OLD NEW`")
			return 2
		}
		// Parsing stops at the first positional argument, so flags
		// written after NEW (`eptest -diff OLD NEW -diff-fail-on new`)
		// arrive as leftovers; take NEW, then parse the rest.
		newPath = fs.Arg(0)
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return 2
		}
	}
	var stray string
	fs.Visit(func(f *flag.Flag) {
		if stray == "" && f.Name != mode && !slices.Contains(strings.Fields(takes), f.Name) {
			stray = f.Name
		}
	})
	var usage string
	switch {
	case stray != "":
		usage = fmt.Sprintf("-%s does not apply to -%s", stray, mode)
	case fs.NArg() != 0 && mode == "diff":
		usage = "-diff compares exactly two findings files: `eptest -diff OLD NEW`"
	case fs.NArg() != 0:
		usage = fmt.Sprintf("-%s takes no positional argument; got %q", mode, fs.Arg(0))
	case *workers < 1:
		usage = fmt.Sprintf("-j %d is not a worker count; pass how many injection runs may execute concurrently (-j 1 for sequential, -j 8 for eight workers)", *workers)
	case *lease <= 0:
		usage = fmt.Sprintf("-lease %v is not a lease TTL; pass how long a silent worker keeps its claims (e.g. -lease 60s)", *lease)
	case *retention < 0:
		usage = fmt.Sprintf("-campaign-retention %v is not a retention period; pass how long a finished campaign's status record stays visible (e.g. -campaign-retention 24h; 0 keeps records forever)", *retention)
	case mode == "serve-coord" && *cache == "":
		usage = "-serve-coord needs -cache DIR naming the store directory that holds the cache and the merged artifact"
	case *coordURL != "" && (*cache != "" || *shard != ""):
		usage = "-coord-url replaces -cache/-shard — the coordinator is the cache, and claims replace the static partition"
	case *shard != "" && *cache == "":
		usage = "-shard needs -cache DIR to hold the shard artifact"
	case mode == "all" && *coordURL == "" && (*workerName != "" || *authToken != ""):
		usage = "-worker and -auth-token talk to a coordinator; under -all they need -coord-url"
	}
	var shardSpec sched.ShardSpec
	if usage == "" && *shard != "" {
		var err error
		if shardSpec, err = sched.ParseShard(*shard); err != nil {
			usage = err.Error()
		}
	}
	if usage != "" {
		fmt.Fprintf(stderr, "eptest: %s\n", usage)
		return 2
	}

	switch mode {
	case "list":
		fmt.Fprintln(stdout, "available campaigns:")
		for _, s := range apps.Catalog() {
			fmt.Fprintf(stdout, "  %-18s %s\n", s.Name, s.Paper)
		}
		return 0
	case "diff":
		return runDiff(*diffOld, newPath, *diffFailOn, stdout, stderr)
	case "merge":
		return runMerge(*merge, *matrix, *findingsOut, stdout, stderr)
	case "serve-coord":
		return runServeCoord(*serveCoord, *cache, *matrix, *filter, *lease, *retention, *authToken, *pprofAddr, nil, stdout, stderr)
	case "all":
		return runSuite(suiteConfig{
			workers:     *workers,
			verbose:     *verbose,
			cacheDir:    *cache,
			shard:       shardSpec,
			matrix:      *matrix,
			filter:      *filter,
			coordURL:    *coordURL,
			worker:      *workerName,
			authToken:   *authToken,
			traceFile:   *traceFile,
			metricsJSON: *metricsOut,
			findingsOut: *findingsOut,
			pprofAddr:   *pprofAddr,
			// The coordinator hands jobs out one at a time, so the
			// renderer's fixed upfront job list does not apply there.
			tty: !*verbose && *coordURL == "" && isTerminal(stdout),
		}, stdout, stderr)
	}

	spec, err := apps.Lookup(*campaign)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return 2
	}
	c := spec.Vulnerable()
	if *fixed {
		c = spec.Fixed()
	}
	res, err := runCampaign(c, *workers)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: campaign failed: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, report.Campaign(res))
	if *perPoint {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.PerPoint(res))
	}
	if *verbose {
		fmt.Fprintln(stdout, "\nall injections:")
		for _, in := range res.Injections {
			status := "tolerated"
			if !in.Tolerated() {
				status = "VIOLATED"
			}
			fmt.Fprintf(stdout, "  %-28s %-44s %s\n", in.Point, in.FaultID, status)
		}
	}
	if res.Metric().Violations() > 0 {
		return 1
	}
	return 0
}

// runCampaign runs one campaign as a one-job suite on the
// work-stealing dispatcher, whose result equals the sequential
// engine's (inject.Run) at any -j.
func runCampaign(c inject.Campaign, workers int) (*inject.Result, error) {
	job := sched.Job{Name: c.Name, Build: func() inject.Campaign { return c }}
	cr := sched.RunSuite([]sched.Job{job}, sched.SuiteOptions{Workers: workers}).Campaigns[0]
	return cr.Result, cr.Err
}

// suiteCache opens the result cache the flags select: the local
// directory store for -cache, the coordinator's HTTP client for
// -coord-url (it serves the store endpoints on its own listener), or
// nil. The second result is the local store, which -shard writes its
// artifact to; it is nil unless -cache was given. A remote client
// records its round-trip latencies into reg.
func suiteCache(cfg suiteConfig, reg *obs.Registry) (sched.Cache, *store.Store, error) {
	switch {
	case cfg.cacheDir != "":
		st, err := store.Open(cfg.cacheDir)
		if err != nil {
			return nil, nil, err
		}
		return st, st, nil
	case cfg.coordURL != "":
		cl, err := store.Dial(cfg.coordURL, store.WithToken(cfg.authToken), store.WithMetrics(reg))
		if err != nil {
			return nil, nil, err
		}
		return cl, nil, nil
	}
	return nil, nil, nil
}

// runSuite schedules the full catalog through the work-stealing
// dispatcher and prints the summary table and clustered findings. The
// exit code reflects scheduling health (a campaign that fails to
// plan), not violations: the suite intentionally includes vulnerable
// variants, so findings are the expected output, not an error.
//
// With a cache the suite runs incrementally; with a shard spec it runs
// one deterministic partition of the job list and writes a shard
// artifact into the -cache store for a later -merge. The suite report
// proper (summary table + clusters) always comes first and is
// identical between cold and warm cache runs; the cache, dispatcher
// and shard sections follow.
func runSuite(cfg suiteConfig, stdout, stderr io.Writer) int {
	// The shard partition — and the catalog its artifact records — is
	// over the filtered job list, so every shard of one merge must be
	// produced with the same -matrix and -filter flags; the merge's
	// catalog check rejects mixtures, and the coordinator rejects
	// workers whose catalog differs from its own.
	jobs, catalog, err := suiteCatalog(cfg.matrix, cfg.filter)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return 2
	}
	// The partition is checked, like the flags, before anything touches
	// the disk or the network.
	var indices []int
	if !cfg.shard.IsZero() {
		jobs, indices = sched.ShardJobs(jobs, cfg.shard)
		if len(jobs) == 0 {
			fmt.Fprintf(stderr, "eptest: shard %s of the %d-job catalog selects zero jobs; lower n or broaden -filter\n", cfg.shard, len(catalog))
			return 2
		}
	}
	// The registry always exists (registration is cheap and the handles
	// are atomic); the flags only decide whether its contents leave the
	// process. The pprof banner goes to stderr so the report on stdout
	// stays byte-identical with profiling on.
	reg := obs.NewRegistry()
	if !startPprof(cfg.pprofAddr, reg, stderr, stderr) {
		return 2
	}
	// Coordinator mode: register against the claim queue before
	// anything else, so a malformed URL, a wrong token, or a catalog
	// mismatch fails fast, before any file, transport or work starts.
	var coordClient *coord.Client
	if cfg.coordURL != "" {
		coordClient, err = coord.Dial(cfg.coordURL, coord.WithToken(cfg.authToken), coord.WithMetrics(reg))
		if err != nil {
			fmt.Fprintf(stderr, "eptest: %v (start one with `eptest -serve-coord ADDR -cache DIR`)\n", err)
			return 2
		}
		if err := coordClient.Register(workerDisplayName(cfg.worker), catalog); err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 2
		}
	}
	cache, shardStore, err := suiteCache(cfg, reg)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return 2
	}
	// The tracer is per-flag: a nil *obs.Tracer disables every span
	// site.
	var tracer *obs.Tracer
	if cfg.traceFile != "" {
		tracer, err = obs.StartTrace(cfg.traceFile)
		if err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 2
		}
		tracer.NameProcess("eptest " + workerDisplayName(cfg.worker))
		defer tracer.Close()
	}
	// The one job source: the coordinator's claim queue, or the
	// (sharded) job list.
	var (
		src    sched.JobSource = sched.NewSliceSource(jobs)
		source *coord.Source
	)
	if coordClient != nil {
		if source, err = coord.NewSource(coordClient, jobs, coord.WithSourceTracer(tracer)); err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 2
		}
		defer source.Close()
		src = source
	}

	opt := sched.SuiteOptions{Workers: cfg.workers, Cache: cache, Metrics: reg, Tracer: tracer}
	var progress *progressRenderer
	switch {
	case cfg.tty:
		progress = newProgressRenderer(stdout, jobs)
		opt.OnEvent = progress.Handle
	case cfg.verbose:
		opt.OnEvent = func(ev sched.Event) {
			switch ev.Kind {
			case sched.EventPlanned:
				fmt.Fprintf(stdout, "[%s] planned %d injection runs\n", ev.Job.Label(), ev.Total)
			case sched.EventDone:
				switch {
				case ev.Err != nil:
					fmt.Fprintf(stdout, "[%s] FAILED: %v\n", ev.Job.Label(), ev.Err)
				case ev.Cached:
					fmt.Fprintf(stdout, "[%s] cached (%d runs replayed)\n", ev.Job.Label(), ev.Total)
				default:
					fmt.Fprintf(stdout, "[%s] done (%d/%d)\n", ev.Job.Label(), ev.Done, ev.Total)
				}
			}
		}
	}
	sr := sched.RunSuiteFrom(src, opt)
	if source != nil {
		source.Close()
	}
	if progress != nil {
		progress.Close()
	}
	// The findings fold runs unconditionally, like the rest of the
	// registry: -findings only decides whether the records leave the
	// process, while eptest_findings_total is always live for
	// -metrics-json. It runs beside the rendering below.
	fold := startFindings(sr, cfg.findingsOut)
	fmt.Fprint(stdout, report.SuiteRun(sr))
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, report.Clusters(sched.ClusterSuite(sr)))
	if cfg.matrix {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.Matrix(sr))
	}
	if cache != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.CacheStats(sr))
	}
	if coordClient != nil {
		fmt.Fprintln(stdout)
		if st, err := coordClient.State(); err != nil {
			fmt.Fprintf(stdout, "coordinator: state unavailable: %v\n", err)
		} else {
			fmt.Fprint(stdout, st.Render())
		}
	}
	if cfg.verbose {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.Dispatch(sr))
	}
	findings.Instrument(reg, fold.wait())
	if !cfg.shard.IsZero() {
		if err := shardStore.WriteShard(cfg.shard, catalog, indices, sr); err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "shard %s: wrote %d job(s) to %s\n", cfg.shard, len(jobs), shardStore.Dir())
	}
	if err := fold.write(stdout); err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return 1
	}
	if tracer != nil {
		// The explicit Close (the deferred one is a backstop for error
		// paths) flushes the span stream and surfaces write errors while
		// the exit code can still reflect them.
		if err := tracer.Close(); err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote trace (%d events) to %s\n", tracer.Events(), cfg.traceFile)
	}
	if cfg.metricsJSON != "" {
		if err := reg.WriteJSONFile(cfg.metricsJSON); err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote metrics snapshot to %s\n", cfg.metricsJSON)
	}
	if source != nil {
		if err := source.Err(); err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 1
		}
	}
	if len(sr.Failed()) > 0 {
		return 1
	}
	return 0
}

// runMerge recombines the shard artifacts under dir into one suite
// report — byte-identical, up to the trailing merged-shard section, to
// the report an unsharded -all run over the same catalog prints. With
// matrix set (shards produced by -matrix workers), the per-axis rollup
// is rendered in its unsharded position too.
func runMerge(dir string, matrix bool, findingsOut string, stdout, stderr io.Writer) int {
	sr, infos, err := store.MergeShards(dir)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return 2
	}
	// Findings are keyed and sorted by content, so the merged export
	// is byte-identical to the file a single-process -all run writes.
	var fold *findingsFold
	if findingsOut != "" {
		fold = startFindings(sr, findingsOut)
	}
	fmt.Fprint(stdout, report.SuiteRun(sr))
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, report.Clusters(sched.ClusterSuite(sr)))
	if matrix {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.Matrix(sr))
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, report.MergedShards(infos))
	if fold != nil {
		if err := fold.write(stdout); err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 1
		}
	}
	if len(sr.Failed()) > 0 {
		return 1
	}
	return 0
}

// startPprof starts the opt-in profiling listener when the -pprof flag
// was given. It returns false only on a bind failure; an empty addr is
// a no-op success.
func startPprof(addr string, reg *obs.Registry, stdout, stderr io.Writer) bool {
	if addr == "" {
		return true
	}
	got, err := obs.ServePprof(addr, reg)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return false
	}
	fmt.Fprintf(stdout, "eptest: pprof listening on http://%s/debug/pprof/\n", got)
	return true
}
