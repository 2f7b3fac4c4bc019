// Package report renders campaign results and the paper's tables as text:
// the per-campaign injection report the CLI prints, and the Table 5/6
// catalog listings.
package report

import (
	"fmt"
	"strings"

	"repro/internal/core/coverage"
	"repro/internal/core/eai"
	"repro/internal/core/inject"
)

// Campaign renders a full campaign report.
func Campaign(res *inject.Result) string {
	var b strings.Builder
	m := res.Metric()
	fmt.Fprintf(&b, "=== EAI fault-injection campaign: %s ===\n", res.Campaign)
	fmt.Fprintf(&b, "interaction points on trace : %d\n", len(res.TotalSites))
	fmt.Fprintf(&b, "points perturbed            : %d\n", m.PointsPerturbed)
	fmt.Fprintf(&b, "faults injected (n)         : %d\n", m.FaultsInjected)
	fmt.Fprintf(&b, "faults tolerated            : %d\n", m.FaultsTolerated)
	fmt.Fprintf(&b, "security violations         : %d\n", m.Violations())
	fmt.Fprintf(&b, "fault coverage              : %.3f\n", m.FaultCoverage())
	fmt.Fprintf(&b, "interaction coverage        : %.3f\n", m.InteractionCoverage())
	fmt.Fprintf(&b, "adequacy region (Fig. 2)    : %s\n", coverage.Classify(m))
	if v := res.Violations(); len(v) > 0 {
		b.WriteString("\nviolating injections:\n")
		for _, in := range v {
			fmt.Fprintf(&b, "  %-28s %-44s", in.Point, in.FaultID)
			for _, viol := range in.Violations {
				fmt.Fprintf(&b, " %s(%s)", viol.Kind, viol.Object)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// PerPoint renders the per-interaction-point breakdown.
func PerPoint(res *inject.Result) string {
	type stat struct {
		injected, violated int
	}
	stats := make(map[string]*stat)
	var order []string
	for _, in := range res.Injections {
		s, ok := stats[in.Site]
		if !ok {
			s = &stat{}
			stats[in.Site] = s
			order = append(order, in.Site)
		}
		s.injected++
		if !in.Tolerated() {
			s.violated++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %9s %9s\n", "interaction point (site)", "injected", "violated")
	for _, site := range order {
		s := stats[site]
		fmt.Fprintf(&b, "%-36s %9d %9d\n", site, s.injected, s.violated)
	}
	return b.String()
}

// Table5 renders the indirect-fault catalog in the layout of the paper's
// Table 5.
func Table5() string {
	var b strings.Builder
	b.WriteString("Table 5: Indirect Environment Faults and Environment Perturbations\n")
	fmt.Fprintf(&b, "%-20s %s\n", "Semantic", "Fault Injections")
	for _, sem := range eai.AllSemantics() {
		if sem == eai.SemRaw {
			continue // implementation fallback, not a paper row
		}
		names := make([]string, 0, 8)
		for _, f := range eai.CatalogIndirect(sem) {
			names = append(names, f.Name)
		}
		fmt.Fprintf(&b, "%-20s %s\n", sem, strings.Join(names, ", "))
	}
	return b.String()
}

// Table6 renders the direct-fault catalog in the layout of the paper's
// Table 6.
func Table6() string {
	var b strings.Builder
	b.WriteString("Table 6: Direct Environment Faults and Environment Perturbations\n")
	fmt.Fprintf(&b, "%-14s %-24s %s\n", "Entity", "Attribute", "Fault Injection")
	for _, ent := range eai.AllEntities() {
		for _, f := range eai.CatalogDirect(ent) {
			fmt.Fprintf(&b, "%-14s %-24s %s\n", ent, f.Attr, f.Desc)
		}
	}
	return b.String()
}

// CountTable is a generic category-count table renderer used for the
// Tables 1-4 reproductions.
type CountTable struct {
	Title      string
	Categories []string
	Counts     map[string]int
}

// Total sums all counts.
func (t CountTable) Total() int {
	total := 0
	for _, c := range t.Categories {
		total += t.Counts[c]
	}
	return total
}

// String renders the table with counts and percentages, mirroring the
// number/percent rows of the paper's tables.
func (t CountTable) String() string {
	var b strings.Builder
	total := t.Total()
	fmt.Fprintf(&b, "%s (total %d)\n", t.Title, total)
	w := 12
	for _, c := range t.Categories {
		if len(c) > w {
			w = len(c)
		}
	}
	for _, c := range t.Categories {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(t.Counts[c]) / float64(total)
		}
		fmt.Fprintf(&b, "  %-*s %5d  %5.1f%%\n", w, c, t.Counts[c], pct)
	}
	return b.String()
}
