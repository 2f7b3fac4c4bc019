// Command papertables regenerates every table and figure of the paper in
// one run and prints a paper-vs-measured summary; `go run
// ./cmd/papertables` is the reproduction's record of its experiments.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/apps/lpr"
	"repro/internal/apps/ntreg"
	"repro/internal/apps/turnin"
	"repro/internal/baseline/ava"
	"repro/internal/baseline/fuzz"
	"repro/internal/baseline/tocttou"
	"repro/internal/core/findings"
	"repro/internal/core/inject"
	"repro/internal/core/policy"
	"repro/internal/core/report"
	"repro/internal/vulndb"
)

var findingsPath = flag.String("findings", "",
	"classify a measured findings file (written by `eptest -all -findings FILE`) against the paper's taxonomy")

func main() {
	os.Exit(run())
}

func run() int {
	flag.Parse()
	ok := true
	check := func(name string, got, want int) {
		status := "ok"
		if got != want {
			status = "MISMATCH"
			ok = false
		}
		fmt.Printf("  %-52s paper=%-5d measured=%-5d %s\n", name, want, got, status)
	}

	fmt.Println("== Tables 1-4: vulnerability database classification (Section 2.4) ==")
	s := vulndb.Load().Classify()
	fmt.Println(vulndb.Table1(s))
	fmt.Println(vulndb.Table2(s))
	fmt.Println(vulndb.Table3(s))
	fmt.Println(vulndb.Table4(s))
	check("database entries", s.Total, 195)
	check("classified entries", s.Classified, 142)
	check("indirect faults", s.Indirect, 81)
	check("direct faults", s.Direct, 48)
	check("others", s.Others, 13)

	if *findingsPath != "" {
		rep, err := findings.ReadFile(*findingsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("\n== Measured findings: %s ==\n", *findingsPath)
		byTax, byRule := findingsTables(rep)
		fmt.Println(byTax)
		fmt.Println(byRule)
	}

	fmt.Println("\n== Tables 5-6: fault catalogs ==")
	fmt.Println(report.Table5())
	fmt.Println(report.Table6())

	fmt.Println("== Section 3.4: lpr create-site walk-through ==")
	lprRes, err := inject.Run(lpr.CreateSiteCampaign(lpr.Vulnerable))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Print(report.Campaign(lprRes))
	check("applicable attributes at create", lprRes.Metric().FaultsInjected, 4)
	check("violations at create", lprRes.Metric().Violations(), 4)

	fmt.Println("\n== Section 4.1: turnin ==")
	tRes, err := inject.Run(turnin.Campaign(turnin.Vulnerable))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Print(report.Campaign(tRes))
	fmt.Println()
	fmt.Print(report.PerPoint(tRes))
	check("interaction places", tRes.Metric().PointsPerturbed, 8)
	check("perturbations", tRes.Metric().FaultsInjected, 41)
	check("violations", tRes.Metric().Violations(), 9)

	fmt.Println("\n== Section 4.2: Windows NT registry ==")
	survey, err := ntreg.RunSurvey(false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	check("unprotected keys", len(survey.UnprotectedKeys), 29)
	check("exploited keys", len(survey.ExploitedKeys), 9)
	check("suspected keys", len(survey.SuspectedKeys), 20)
	fmt.Println("  exploited:")
	for _, k := range survey.ExploitedKeys {
		fmt.Printf("    %s\n", k)
	}

	fmt.Println("\n== Section 5 comparisons ==")
	results, crashed := fuzz.RunSuite(fuzz.UtilitySuite(), fuzz.Options{Trials: 40, Seed: 1})
	fmt.Printf("  fuzz: %d of %d utilities crash under random input (%.0f%%; Miller reports 25-33%%)\n",
		crashed, len(results), 100*float64(crashed)/float64(len(results)))

	c := turnin.Campaign(turnin.Vulnerable)
	avaRes := ava.Run("turnin", c.World, c.Policy, ava.Options{Trials: 41, Seed: 4})
	// Count semantic violations through the canonical findings records
	// rather than re-walking clusters: the same path the export file and
	// the fleet surfaces use.
	eaiSem := 0
	for _, f := range findings.FromResult("turnin", "vulnerable", tRes).Findings {
		if f.Rule == policy.KindConfidentiality.String() || f.Rule == policy.KindIntegrity.String() {
			eaiSem += len(f.Traces)
		}
	}
	avaSem := avaRes.ViolationKinds[policy.KindConfidentiality] +
		avaRes.ViolationKinds[policy.KindIntegrity]
	fmt.Printf("  ava : %d semantic violations in 41 random internal-state runs (EAI finds %d in 41)\n",
		avaSem, eaiSem)

	kt, lt := turnin.World(turnin.Vulnerable)()
	pt := kt.NewProc(lt.Cred, lt.Env, lt.Cwd, lt.Args...)
	if _, crash := kt.Run(pt, lt.Prog); crash != nil {
		fmt.Fprintln(os.Stderr, crash)
		return 1
	}
	windows := tocttou.AnalyzeDirs(kt.Bus.Trace())
	fmt.Printf("  tocttou: %d check-use windows flagged in turnin; 0 in lpr (checkless creat is its blind spot)\n",
		len(windows))

	fmt.Println("\n== Section 3.3 step 9: widen the selected sites until adequate ==")
	adRes, rounds, err := inject.RunUntilAdequate(lpr.CreateSiteCampaign(lpr.Vulnerable), 0.6)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	m := adRes.Metric()
	fmt.Printf("  lpr create-site to interaction coverage 0.6: %d rounds, final coverage %.2f (%d of %d points)\n",
		rounds, m.InteractionCoverage(), m.PointsPerturbed, m.PointsTotal)

	if !ok {
		fmt.Println("\nRESULT: MISMATCH — at least one measured value differs from the paper")
		return 1
	}
	fmt.Println("\nRESULT: all measured values match the paper")
	return 0
}

// findingsTables folds a measured findings file into the paper's
// count-table shape: finding records by taxonomy slug, and violating
// traces by policy rule.
func findingsTables(rep *findings.Report) (byTax, byRule report.CountTable) {
	byTax = report.CountTable{
		Title:  "Findings by vulnerability taxonomy",
		Counts: map[string]int{},
	}
	byRule = report.CountTable{
		Title:  "Violating traces by policy rule",
		Counts: map[string]int{},
	}
	for i := range rep.Findings {
		f := &rep.Findings[i]
		if byTax.Counts[f.Taxonomy.Slug] == 0 {
			byTax.Categories = append(byTax.Categories, f.Taxonomy.Slug)
		}
		byTax.Counts[f.Taxonomy.Slug]++
		if byRule.Counts[f.Rule] == 0 {
			byRule.Categories = append(byRule.Categories, f.Rule)
		}
		byRule.Counts[f.Rule] += len(f.Traces)
	}
	sort.Strings(byTax.Categories)
	sort.Strings(byRule.Categories)
	return byTax, byRule
}
