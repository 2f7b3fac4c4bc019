// Package repro_test is the benchmark harness that regenerates every table
// and figure of Du & Mathur, "Testing for Software Vulnerability Using
// Environment Perturbation" (DSN 2000), plus the ablations DESIGN.md calls
// out. Each benchmark performs the full experiment per iteration and
// fails loudly if the regenerated numbers drift from the paper's.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/ftpget"
	"repro/internal/apps/lpr"
	"repro/internal/apps/maildrop"
	"repro/internal/apps/matrix"
	"repro/internal/apps/ntreg"
	"repro/internal/apps/turnin"
	"repro/internal/baseline/ava"
	"repro/internal/baseline/fuzz"
	"repro/internal/baseline/tocttou"
	"repro/internal/core/coord"
	"repro/internal/core/coverage"
	"repro/internal/core/eai"
	"repro/internal/core/inject"
	"repro/internal/core/policy"
	"repro/internal/core/report"
	"repro/internal/core/sched"
	"repro/internal/core/store"
	"repro/internal/interpose"
	"repro/internal/sim/proc"
	"repro/internal/vulndb"
)

// --- Tables 1-4: the Section 2.4 vulnerability-database classification ---

// BenchmarkTable1HighLevelClassification regenerates Table 1:
// 142 classified flaws = 81 indirect (57%) + 48 direct (34%) + 13 others (9%).
func BenchmarkTable1HighLevelClassification(b *testing.B) {
	db := vulndb.Load()
	var s vulndb.Stats
	for i := 0; i < b.N; i++ {
		s = db.Classify()
	}
	if s.Indirect != 81 || s.Direct != 48 || s.Others != 13 {
		b.Fatalf("Table 1 = %d/%d/%d, paper reports 81/48/13", s.Indirect, s.Direct, s.Others)
	}
	b.ReportMetric(float64(s.Classified), "classified")
	b.Logf("\n%s", vulndb.Table1(s))
}

// BenchmarkTable2IndirectClassification regenerates Table 2:
// user 51, env 17, file 5, network 8, process 0.
func BenchmarkTable2IndirectClassification(b *testing.B) {
	db := vulndb.Load()
	var s vulndb.Stats
	for i := 0; i < b.N; i++ {
		s = db.Classify()
	}
	got := [5]int{
		s.IndirectByOrigin[eai.OriginUserInput],
		s.IndirectByOrigin[eai.OriginEnvVar],
		s.IndirectByOrigin[eai.OriginFileInput],
		s.IndirectByOrigin[eai.OriginNetworkInput],
		s.IndirectByOrigin[eai.OriginProcessInput],
	}
	if got != [5]int{51, 17, 5, 8, 0} {
		b.Fatalf("Table 2 = %v, paper reports [51 17 5 8 0]", got)
	}
	b.Logf("\n%s", vulndb.Table2(s))
}

// BenchmarkTable3DirectClassification regenerates Table 3:
// file system 42, network 5, process 1.
func BenchmarkTable3DirectClassification(b *testing.B) {
	db := vulndb.Load()
	var s vulndb.Stats
	for i := 0; i < b.N; i++ {
		s = db.Classify()
	}
	got := [3]int{
		s.DirectByEntity[eai.EntityFileSystem],
		s.DirectByEntity[eai.EntityNetwork],
		s.DirectByEntity[eai.EntityProcess],
	}
	if got != [3]int{42, 5, 1} {
		b.Fatalf("Table 3 = %v, paper reports [42 5 1]", got)
	}
	b.Logf("\n%s", vulndb.Table3(s))
}

// BenchmarkTable4FileSystemFaults regenerates Table 4: existence 20,
// symlink 6, permission 6, ownership 3, invariance 6, workdir 1.
func BenchmarkTable4FileSystemFaults(b *testing.B) {
	db := vulndb.Load()
	var s vulndb.Stats
	for i := 0; i < b.N; i++ {
		s = db.Classify()
	}
	got := [6]int{
		s.FSByAttr[eai.AttrExistence], s.FSByAttr[eai.AttrSymlink],
		s.FSByAttr[eai.AttrPermission], s.FSByAttr[eai.AttrOwnership],
		s.FSByAttr[eai.AttrContentInvariance], s.FSByAttr[eai.AttrWorkingDirectory],
	}
	if got != [6]int{20, 6, 6, 3, 6, 1} {
		b.Fatalf("Table 4 = %v, paper reports [20 6 6 3 6 1]", got)
	}
	b.Logf("\n%s", vulndb.Table4(s))
}

// --- Tables 5-6: the fault catalogs ---

// BenchmarkTable5IndirectCatalog materialises the full indirect catalog
// and applies every mutator, verifying the published row shape.
func BenchmarkTable5IndirectCatalog(b *testing.B) {
	sample := []byte("/usr/local/bin:/usr/bin")
	var n int
	for i := 0; i < b.N; i++ {
		n = 0
		for _, s := range eai.AllSemantics() {
			for _, f := range eai.CatalogIndirect(s) {
				_ = f.Mutate(sample)
				n++
			}
		}
	}
	if n != 32 {
		b.Fatalf("catalog has %d faults, want 32", n)
	}
	b.ReportMetric(float64(n), "faults")
	b.Logf("\n%s", report.Table5())
}

// BenchmarkTable6DirectCatalog materialises the direct catalog and applies
// every file-system perturbation against a live world.
func BenchmarkTable6DirectCatalog(b *testing.B) {
	var applied int
	for i := 0; i < b.N; i++ {
		applied = 0
		k, l := lpr.World(lpr.Vulnerable)()
		for _, f := range eai.CatalogDirect(eai.EntityFileSystem) {
			ctx := &eai.Ctx{
				Kern:   k,
				Call:   &interpose.Call{Site: "lpr:create", Op: interpose.OpCreate, Kind: interpose.KindFile, Path: lpr.SpoolFile},
				Cwd:    l.Cwd,
				SetCwd: func(string) {},
				Cfg:    eai.Config{Attacker: proc.NewCred(666, 666)}.WithDefaults(),
			}
			if f.Applies(ctx) {
				if err := f.Apply(ctx); err != nil {
					b.Fatalf("%s: %v", f.ID, err)
				}
				applied++
			}
		}
	}
	if applied == 0 {
		b.Fatal("no direct faults applied")
	}
	catalog := 0
	for _, e := range eai.AllEntities() {
		catalog += len(eai.CatalogDirect(e))
	}
	b.ReportMetric(float64(catalog), "catalog_faults")
	b.Logf("\n%s", report.Table6())
}

// --- Figures ---

// BenchmarkFigure1InteractionModel demonstrates the two propagation paths
// of Figure 1 on the same program: an indirect fault arriving through an
// input value (1a) and a direct fault acting through the environment
// entity (1b).
func BenchmarkFigure1InteractionModel(b *testing.B) {
	var indirect, direct int
	for i := 0; i < b.N; i++ {
		cInd := lpr.Campaign(lpr.Vulnerable)
		cInd.Sites = []string{"lpr:arg-file"}
		resInd, err := inject.RunWith(cInd, inject.Options{OnlyIndirect: true})
		if err != nil {
			b.Fatal(err)
		}
		indirect = len(resInd.Injections)

		resDir, err := inject.RunWith(lpr.CreateSiteCampaign(lpr.Vulnerable), inject.Options{OnlyDirect: true})
		if err != nil {
			b.Fatal(err)
		}
		direct = len(resDir.Injections)
	}
	if indirect == 0 || direct == 0 {
		b.Fatalf("paths not exercised: indirect=%d direct=%d", indirect, direct)
	}
	b.ReportMetric(float64(indirect), "indirect_path")
	b.ReportMetric(float64(direct), "direct_path")
}

// BenchmarkFigure2AdequacyMetric regenerates the four sample points of the
// two-dimensional adequacy metric from real campaigns.
func BenchmarkFigure2AdequacyMetric(b *testing.B) {
	var regions [4]coverage.Region
	for i := 0; i < b.N; i++ {
		// Point 1 (inadequate): one site of the vulnerable turnin.
		p1 := turnin.Campaign(turnin.Vulnerable)
		p1.Sites = []string{"turnin:open-projlist"}
		r1 := mustRun(b, p1)
		// Point 2 (narrow): one site of the fixed turnin.
		p2 := turnin.Campaign(turnin.Fixed)
		p2.Sites = []string{"turnin:open-config"}
		r2 := mustRun(b, p2)
		// Point 3 (insecure): full campaign against the vulnerable lpr.
		r3 := mustRun(b, lpr.CreateSiteCampaign(lpr.Vulnerable))
		// Point 4 (safe): full campaign against the fixed turnin.
		r4 := mustRun(b, turnin.Campaign(turnin.Fixed))

		// Thresholds are per-axis tester policy (the paper draws the split
		// qualitatively); the fixed turnin's extra validation sites dilute
		// its interaction coverage, hence the 0.4 split for point 4.
		regions = [4]coverage.Region{
			coverage.ClassifyAt(r1.Metric(), 0.5, 0.9),
			coverage.ClassifyAt(r2.Metric(), 0.5, 0.9),
			coverage.ClassifyAt(r3.Metric(), 0.2, 0.9),
			coverage.ClassifyAt(r4.Metric(), 0.4, 0.9),
		}
	}
	want := [4]coverage.Region{
		coverage.RegionInadequate, coverage.RegionNarrow,
		coverage.RegionInsecure, coverage.RegionSafe,
	}
	if regions != want {
		b.Fatalf("Figure 2 regions = %v, want %v", regions, want)
	}
}

// --- Case studies ---

// BenchmarkSection34Lpr regenerates the lpr walk-through: 4 applicable
// attributes at the create point, 4 violations.
func BenchmarkSection34Lpr(b *testing.B) {
	var res *inject.Result
	for i := 0; i < b.N; i++ {
		res = mustRun(b, lpr.CreateSiteCampaign(lpr.Vulnerable))
	}
	m := res.Metric()
	if m.FaultsInjected != 4 || m.Violations() != 4 {
		b.Fatalf("lpr create site = %d injected / %d violations, paper reports 4/4",
			m.FaultsInjected, m.Violations())
	}
	b.ReportMetric(float64(m.FaultsInjected), "injected")
	b.ReportMetric(float64(m.Violations()), "violations")
}

// BenchmarkSection41Turnin regenerates the turnin campaign: 8 interaction
// places, 41 perturbations, 9 violations.
func BenchmarkSection41Turnin(b *testing.B) {
	var res *inject.Result
	for i := 0; i < b.N; i++ {
		res = mustRun(b, turnin.Campaign(turnin.Vulnerable))
	}
	m := res.Metric()
	if m.PointsPerturbed != 8 || m.FaultsInjected != 41 || m.Violations() != 9 {
		b.Fatalf("turnin = %d places / %d perturbations / %d violations, paper reports 8/41/9",
			m.PointsPerturbed, m.FaultsInjected, m.Violations())
	}
	b.ReportMetric(float64(m.PointsPerturbed), "places")
	b.ReportMetric(float64(m.FaultsInjected), "perturbations")
	b.ReportMetric(float64(m.Violations()), "violations")
	b.Logf("\n%s", report.Campaign(res))
}

// BenchmarkSection42Registry regenerates the NT registry survey: 29
// unprotected keys, 9 exploited, 20 suspected.
func BenchmarkSection42Registry(b *testing.B) {
	var s *ntreg.Survey
	for i := 0; i < b.N; i++ {
		var err error
		s, err = ntreg.RunSurvey(false)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(s.UnprotectedKeys) != 29 || len(s.ExploitedKeys) != 9 || len(s.SuspectedKeys) != 20 {
		b.Fatalf("registry survey = %d unprotected / %d exploited / %d suspected, paper reports 29/9/20",
			len(s.UnprotectedKeys), len(s.ExploitedKeys), len(s.SuspectedKeys))
	}
	b.ReportMetric(float64(len(s.UnprotectedKeys)), "unprotected")
	b.ReportMetric(float64(len(s.ExploitedKeys)), "exploited")
	b.ReportMetric(float64(len(s.SuspectedKeys)), "suspected")
}

// --- Section 5 comparisons ---

// BenchmarkBaselineFuzzComparison regenerates the Miller crash-rate
// comparison: random input crashes 25-40% of the utility suite.
func BenchmarkBaselineFuzzComparison(b *testing.B) {
	var crashed, total int
	for i := 0; i < b.N; i++ {
		results, c := fuzz.RunSuite(fuzz.UtilitySuite(), fuzz.Options{Trials: 40, Seed: 1})
		crashed, total = c, len(results)
	}
	rate := float64(crashed) / float64(total)
	if rate < 0.25 || rate > 0.40 {
		b.Fatalf("crash rate = %.2f, outside Miller's 25-40%% band", rate)
	}
	b.ReportMetric(rate, "crash_rate")
}

// BenchmarkBaselineAVAComparison regenerates the complementarity claim:
// at the same 41-run budget, EAI finds the semantic violations AVA's
// random internal-state corruption does not.
func BenchmarkBaselineAVAComparison(b *testing.B) {
	var eaiSem, avaSem int
	for i := 0; i < b.N; i++ {
		c := turnin.Campaign(turnin.Vulnerable)
		res := mustRun(b, c)
		eaiSem = 0
		for _, in := range res.Violations() {
			for _, v := range in.Violations {
				if v.Kind == policy.KindConfidentiality || v.Kind == policy.KindIntegrity {
					eaiSem++
				}
			}
		}
		avaRes := ava.Run("turnin", c.World, c.Policy, ava.Options{Trials: 41, Seed: 4})
		avaSem = avaRes.ViolationKinds[policy.KindConfidentiality] +
			avaRes.ViolationKinds[policy.KindIntegrity]
	}
	if avaSem >= eaiSem {
		b.Fatalf("AVA semantic findings (%d) >= EAI (%d); the paper's complementarity claim inverted",
			avaSem, eaiSem)
	}
	b.ReportMetric(float64(eaiSem), "eai_semantic")
	b.ReportMetric(float64(avaSem), "ava_semantic")
}

// BenchmarkBaselineTOCTTOU regenerates the Bishop-Dilger comparison: the
// static pattern flags turnin's check-use windows but is blind to lpr's
// checkless creat, which EAI defeats four ways.
func BenchmarkBaselineTOCTTOU(b *testing.B) {
	var turninFindings, lprSpoolFindings int
	for i := 0; i < b.N; i++ {
		kt, lt := turnin.World(turnin.Vulnerable)()
		pt := kt.NewProc(lt.Cred, lt.Env, lt.Cwd, lt.Args...)
		if _, crash := kt.Run(pt, lt.Prog); crash != nil {
			b.Fatal(crash)
		}
		turninFindings = len(tocttou.AnalyzeDirs(kt.Bus.Trace()))

		kl, ll := lpr.World(lpr.Vulnerable)()
		pl := kl.NewProc(ll.Cred, ll.Env, ll.Cwd, ll.Args...)
		if _, crash := kl.Run(pl, ll.Prog); crash != nil {
			b.Fatal(crash)
		}
		lprSpoolFindings = 0
		for _, f := range tocttou.AnalyzeDirs(kl.Bus.Trace()) {
			if f.Object == lpr.SpoolFile {
				lprSpoolFindings++
			}
		}
	}
	if turninFindings == 0 {
		b.Fatal("TOCTTOU detector found nothing in turnin")
	}
	if lprSpoolFindings != 0 {
		b.Fatal("TOCTTOU detector flagged lpr's checkless creat; blind spot expected")
	}
	b.ReportMetric(float64(turninFindings), "turnin_findings")
	b.ReportMetric(float64(lprSpoolFindings), "lpr_spool_findings")
}

// --- Ablations (DESIGN.md Section 5) ---

// BenchmarkAblationSemanticVsRandom measures violations found per injected
// run: Table 5/6 semantic patterns versus uniformly random corruption at
// the same budget.
func BenchmarkAblationSemanticVsRandom(b *testing.B) {
	var semanticYield, randomYield float64
	for i := 0; i < b.N; i++ {
		c := turnin.Campaign(turnin.Vulnerable)
		res := mustRun(b, c)
		semanticYield = float64(res.Metric().Violations()) / float64(res.Metric().FaultsInjected)

		avaRes := ava.Run("turnin", c.World, c.Policy, ava.Options{Trials: 41, Seed: 10})
		randomYield = float64(avaRes.Violations) / float64(avaRes.Trials)
	}
	if semanticYield <= randomYield {
		b.Fatalf("semantic yield %.3f <= random yield %.3f; Table 5 patterns should dominate",
			semanticYield, randomYield)
	}
	b.ReportMetric(semanticYield, "semantic_yield")
	b.ReportMetric(randomYield, "random_yield")
}

// BenchmarkAblationInjectionTiming shows why Section 3.3 step 6 injects
// direct faults *before* the interaction point: injected after, the lpr
// TOCTTOU family disappears.
func BenchmarkAblationInjectionTiming(b *testing.B) {
	var before, after int
	for i := 0; i < b.N; i++ {
		rb := mustRun(b, lpr.CreateSiteCampaign(lpr.Vulnerable))
		before = rb.Metric().Violations()
		ra, err := inject.RunWith(lpr.CreateSiteCampaign(lpr.Vulnerable),
			inject.Options{DirectAfterPoint: true})
		if err != nil {
			b.Fatal(err)
		}
		after = ra.Metric().Violations()
	}
	if before <= after {
		b.Fatalf("before-point violations (%d) <= after-point (%d)", before, after)
	}
	b.ReportMetric(float64(before), "before_point")
	b.ReportMetric(float64(after), "after_point")
}

// BenchmarkAblationPointDedup measures campaign cost with and without the
// same-object fault suppression (the paper's future-work static
// equivalence analysis, realised dynamically).
func BenchmarkAblationPointDedup(b *testing.B) {
	var withDedup, withoutDedup, vWith, vWithout int
	for i := 0; i < b.N; i++ {
		c := turnin.Campaign(turnin.Vulnerable)
		rd := mustRun(b, c)
		withDedup, vWith = rd.Metric().FaultsInjected, rd.Metric().Violations()
		rn, err := inject.RunWith(c, inject.Options{NoObjectDedup: true})
		if err != nil {
			b.Fatal(err)
		}
		withoutDedup, vWithout = rn.Metric().FaultsInjected, rn.Metric().Violations()
	}
	if withoutDedup <= withDedup {
		b.Fatalf("no-dedup cost (%d) <= dedup cost (%d)", withoutDedup, withDedup)
	}
	if vWithout < vWith {
		b.Fatalf("dedup lost violations: %d -> %d", vWithout, vWith)
	}
	b.ReportMetric(float64(withDedup), "runs_dedup")
	b.ReportMetric(float64(withoutDedup), "runs_nodedup")
}

// BenchmarkAblationFixedVariants verifies the fault-removal assumption of
// Section 3.2: after repairs, every campaign reaches fault coverage 1.0.
func BenchmarkAblationFixedVariants(b *testing.B) {
	campaigns := []inject.Campaign{
		lpr.Campaign(lpr.Fixed),
		turnin.Campaign(turnin.Fixed),
		maildrop.Campaign(maildrop.Fixed),
		ftpget.Campaign(ftpget.Fixed),
	}
	var minFC float64
	for i := 0; i < b.N; i++ {
		minFC = 1
		for _, c := range campaigns {
			res := mustRun(b, c)
			if fc := res.Metric().FaultCoverage(); fc < minFC {
				minFC = fc
			}
		}
	}
	if minFC < 1 {
		b.Fatalf("a fixed variant has fault coverage %.3f < 1.0", minFC)
	}
	b.ReportMetric(minFC, "min_fault_coverage")
}

// --- Suite scheduling (internal/core/sched) ---

// suiteViolations totals the violations across a suite run, the
// invariant both suite benchmarks must agree on.
func suiteViolations(b *testing.B, sr *sched.SuiteResult) int {
	b.Helper()
	if failed := sr.Failed(); len(failed) != 0 {
		b.Fatalf("suite campaigns failed: %v", failed)
	}
	total := 0
	for _, c := range sr.Campaigns {
		total += c.Result.Metric().Violations()
	}
	return total
}

// BenchmarkSuiteSequential is the baseline: the whole catalog on one
// worker, equivalent to looping inject.Run over every campaign.
func BenchmarkSuiteSequential(b *testing.B) {
	jobs := apps.SuiteJobs()
	var violations int
	for i := 0; i < b.N; i++ {
		violations = suiteViolations(b, sched.RunSuite(jobs, sched.SuiteOptions{Workers: 1}))
	}
	b.ReportMetric(float64(violations), "violations")
}

// BenchmarkSuiteParallel runs the same catalog across all CPUs; the
// speedup over BenchmarkSuiteSequential is the scheduler's win.
func BenchmarkSuiteParallel(b *testing.B) {
	jobs := apps.SuiteJobs()
	var violations int
	for i := 0; i < b.N; i++ {
		violations = suiteViolations(b, sched.RunSuite(jobs, sched.SuiteOptions{Workers: runtime.GOMAXPROCS(0)}))
	}
	b.ReportMetric(float64(violations), "violations")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// skewedSuiteJobs is the unbalanced workload for the scheduling
// benchmarks: a few expensive campaigns (turnin plans 41 runs each)
// buried in a field of cheap ones (lpr-create-site plans 4), so a
// campaign-granularity partition leaves whoever draws the turnins
// running long after everyone else is idle.
func skewedSuiteJobs(b *testing.B) []sched.Job {
	heavy, err := apps.Lookup("turnin")
	if err != nil {
		b.Fatal(err)
	}
	light, err := apps.Lookup("lpr-create-site")
	if err != nil {
		b.Fatal(err)
	}
	var jobs []sched.Job
	for i := 0; i < 15; i++ {
		spec := light
		if i%5 == 0 { // jobs 0, 5, 10 are heavy
			spec = heavy
		}
		jobs = append(jobs, sched.Job{Name: spec.Name, Variant: "vulnerable", Build: spec.Vulnerable})
	}
	return jobs
}

// BenchmarkSuiteWorkStealing runs the skewed catalog through the
// run-granularity work-stealing dispatcher on all CPUs: the heavy
// campaigns' runs spread across every worker, so wall-clock tracks
// total work, not the largest campaign.
func BenchmarkSuiteWorkStealing(b *testing.B) {
	jobs := skewedSuiteJobs(b)
	var violations int
	for i := 0; i < b.N; i++ {
		violations = suiteViolations(b, sched.RunSuite(jobs, sched.SuiteOptions{Workers: runtime.GOMAXPROCS(0)}))
	}
	b.ReportMetric(float64(violations), "violations")
}

// BenchmarkSuiteStaticShards is the scheduling baseline the dispatcher
// replaces: the same skewed catalog split into GOMAXPROCS static
// campaign-granularity partitions (the cross-machine `-shard k/n`
// model), each running its jobs on one worker. The gap to
// BenchmarkSuiteWorkStealing is the cost of not rebalancing: the
// shards that draw the heavy campaigns finish last while the rest sit
// idle.
func BenchmarkSuiteStaticShards(b *testing.B) {
	jobs := skewedSuiteJobs(b)
	n := runtime.GOMAXPROCS(0)
	if n > len(jobs) {
		n = len(jobs)
	}
	var violations int
	for i := 0; i < b.N; i++ {
		// Collect per-shard results and judge them on the benchmark
		// goroutine — b.Fatalf must not run on a worker goroutine.
		results := make([]*sched.SuiteResult, n)
		var wg sync.WaitGroup
		for k := 1; k <= n; k++ {
			shardJobs, _ := sched.ShardJobs(jobs, sched.ShardSpec{K: k, N: n})
			wg.Add(1)
			go func(k int, shardJobs []sched.Job) {
				defer wg.Done()
				results[k-1] = sched.RunSuite(shardJobs, sched.SuiteOptions{Workers: 1})
			}(k, shardJobs)
		}
		wg.Wait()
		total := 0
		for _, sr := range results {
			total += suiteViolations(b, sr)
		}
		violations = total
	}
	b.ReportMetric(float64(violations), "violations")
}

// twoMachineSkewedJobs is the adversarial catalog for the two-machine
// scheduling benchmarks: every heavy campaign — turnin swept with
// nodedup, an order of magnitude costlier than the lights — sits at an
// even index, so the static round-robin -shard 1/2 partition hands all
// of them to machine 1 while machine 2 draws only lpr-create-site (4
// runs each). This is the worst case the ROADMAP's "k/n split across
// machines is still static" item describes — and exactly the catalog
// shape (a few expensive cells in a big grid) the matrix option sweeps
// produce.
func twoMachineSkewedJobs(b *testing.B) []sched.Job {
	heavy, err := apps.Lookup("turnin")
	if err != nil {
		b.Fatal(err)
	}
	light, err := apps.Lookup("lpr-create-site")
	if err != nil {
		b.Fatal(err)
	}
	nodedup := &inject.Options{NoObjectDedup: true}
	var jobs []sched.Job
	for i := 0; i < 20; i++ {
		job := sched.Job{Name: light.Name, Variant: "vulnerable", Build: light.Vulnerable}
		if i%2 == 0 { // heavies on every even index — all on shard 1/2
			job = sched.Job{Name: heavy.Name, Variant: "vulnerable+nodedup", Build: heavy.Vulnerable, Engine: nodedup}
		}
		jobs = append(jobs, job)
	}
	return jobs
}

// twoMachineWorkers sizes each simulated machine's dispatcher. With a
// single CPU the two "machines" would just timeslice one core — total
// wall equals total work regardless of scheduling, so neither static
// nor dynamic assignment can win and the comparison is meaningless;
// skip rather than report noise.
func twoMachineWorkers(b *testing.B) int {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		b.Skip("two-machine scheduling benchmarks need >= 2 CPUs")
	}
	return n / 2
}

// BenchmarkSuiteTwoMachinesStatic models today's cross-machine story
// on the skewed catalog: two "machines" (goroutines with half the CPUs
// each) own static -shard 1/2 and 2/2 partitions. Wall time is the
// slower shard — the machine that drew every heavy campaign — while
// the other machine sits idle after finishing.
func BenchmarkSuiteTwoMachinesStatic(b *testing.B) {
	jobs := twoMachineSkewedJobs(b)
	perMachine := twoMachineWorkers(b)
	var violations int
	for i := 0; i < b.N; i++ {
		results := make([]*sched.SuiteResult, 2)
		var wg sync.WaitGroup
		for k := 1; k <= 2; k++ {
			shardJobs, _ := sched.ShardJobs(jobs, sched.ShardSpec{K: k, N: 2})
			wg.Add(1)
			go func(k int, shardJobs []sched.Job) {
				defer wg.Done()
				results[k-1] = sched.RunSuite(shardJobs, sched.SuiteOptions{Workers: perMachine})
			}(k, shardJobs)
		}
		wg.Wait()
		violations = suiteViolations(b, results[0]) + suiteViolations(b, results[1])
	}
	b.ReportMetric(float64(violations), "violations")
}

// BenchmarkSuiteTwoMachinesCoord replaces the static split with the
// distributed coordinator: the same two machines claim campaigns from
// one lease-based queue over real HTTP, so whichever machine finishes
// its claims early just claims more — the win over
// BenchmarkSuiteTwoMachinesStatic is the straggler time dynamic
// claiming eliminates.
func BenchmarkSuiteTwoMachinesCoord(b *testing.B) {
	jobs := twoMachineSkewedJobs(b)
	catalog := make([]string, len(jobs))
	for i, j := range jobs {
		catalog[i] = j.Label()
	}
	perMachine := twoMachineWorkers(b)
	var violations int
	for i := 0; i < b.N; i++ {
		co := coord.New(catalog, coord.Options{})
		srv := httptest.NewServer(coord.NewServer(co))
		results := make([]*sched.SuiteResult, 2)
		var wg sync.WaitGroup
		for m := 0; m < 2; m++ {
			cl, err := coord.Dial(srv.URL)
			if err != nil {
				b.Fatal(err)
			}
			if err := cl.Register(fmt.Sprintf("m%d", m), catalog); err != nil {
				b.Fatal(err)
			}
			src, err := coord.NewSource(cl, jobs)
			if err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func(m int, src *coord.Source) {
				defer wg.Done()
				defer src.Close()
				results[m] = sched.RunSuiteFrom(src, sched.SuiteOptions{Workers: perMachine})
			}(m, src)
		}
		wg.Wait()
		srv.Close()
		violations = suiteViolations(b, results[0]) + suiteViolations(b, results[1])
	}
	b.ReportMetric(float64(violations), "violations")
}

// BenchmarkSuiteMatrix runs the expanded campaign matrix — option
// sweeps, site cuts, and multi-site compositions, an order of
// magnitude beyond the base catalog — through the work-stealing
// dispatcher at full width, cold and then against a warm result
// store: the catalog size the dispatcher and cache were built for.
// The warm pass must replay every cell (100% hits) or the fingerprint
// independence of the matrix cells has broken.
func BenchmarkSuiteMatrix(b *testing.B) {
	jobs := matrix.SuiteJobs()
	if len(jobs) < 10*len(apps.SuiteJobs()) {
		b.Fatalf("matrix emits %d jobs, want >= 10x the base catalog", len(jobs))
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		var runs int
		for i := 0; i < b.N; i++ {
			sr := sched.RunSuite(jobs, sched.SuiteOptions{Workers: runtime.GOMAXPROCS(0)})
			runs = 0
			for _, c := range sr.Campaigns {
				if c.Err != nil {
					b.Fatalf("%s: %v", c.Job.Label(), c.Err)
				}
				runs += len(c.Result.Injections)
			}
		}
		b.ReportMetric(float64(len(jobs)), "campaigns")
		b.ReportMetric(float64(runs), "runs")
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		seed := sched.RunSuite(jobs, sched.SuiteOptions{Workers: runtime.GOMAXPROCS(0), Cache: st})
		if len(seed.Failed()) != 0 {
			b.Fatalf("seed run failed: %v", seed.Failed())
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sr := sched.RunSuite(jobs, sched.SuiteOptions{Workers: runtime.GOMAXPROCS(0), Cache: st})
			if hits := sr.CacheHits(); hits != len(jobs) {
				b.Fatalf("warm pass replayed %d/%d campaigns", hits, len(jobs))
			}
		}
		b.ReportMetric(float64(len(jobs)), "campaigns")
	})
}

// --- World snapshots (copy-on-write fork) ---

// BenchmarkWorldSnapshotFork measures the per-run world cost: every
// iteration forks the app's memoized frozen image — the price each
// injection run pays for a private world.
func BenchmarkWorldSnapshotFork(b *testing.B) {
	for _, spec := range apps.Catalog() {
		c := spec.Vulnerable()
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			c.World() // prime the package image outside the timer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.World()
			}
		})
	}
}

// BenchmarkInterpositionOverhead measures the cost the bus adds per
// syscall, with and without trace recording.
func BenchmarkInterpositionOverhead(b *testing.B) {
	k, l := lpr.World(lpr.Vulnerable)()
	p := k.NewProc(l.Cred, l.Env, l.Cwd, l.Args...)
	b.Run("recording", func(b *testing.B) {
		k.Bus.SetRecording(true)
		for i := 0; i < b.N; i++ {
			_, _ = p.Stat("bench:stat", "/etc/passwd")
		}
	})
	b.Run("silent", func(b *testing.B) {
		k.Bus.SetRecording(false)
		for i := 0; i < b.N; i++ {
			_, _ = p.Stat("bench:stat", "/etc/passwd")
		}
	})
}

// mustRun is the bench-side campaign runner.
func mustRun(b *testing.B, c inject.Campaign) *inject.Result {
	b.Helper()
	res, err := inject.Run(c)
	if err != nil {
		b.Fatal(err)
	}
	return res
}
