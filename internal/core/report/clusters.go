package report

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/core/coverage"
	"repro/internal/core/sched"
)

// SuiteRun renders a scheduled suite's per-campaign summary: one row
// per job with its adequacy metric, in job order, with failed
// campaigns called out inline.
func SuiteRun(sr *sched.SuiteResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %7s %9s %10s %7s %7s  %s\n",
		"campaign", "points", "injected", "violations", "FC", "IC", "region")
	for _, c := range sr.Campaigns {
		if c.Err != nil {
			fmt.Fprintf(&b, "%-24s FAILED: %v\n", c.Job.Label(), c.Err)
			continue
		}
		m := c.Result.Metric()
		fmt.Fprintf(&b, "%-24s %7d %9d %10d %7.3f %7.3f  %s\n",
			c.Job.Label(), m.PointsPerturbed, m.FaultsInjected, m.Violations(),
			m.FaultCoverage(), m.InteractionCoverage(), coverage.Classify(m))
	}
	return b.String()
}

// Clusters renders deduplicated suite findings: one block per
// violation cluster, largest first, with the signature, the campaigns
// it spans, and each member occurrence.
func Clusters(clusters []sched.Cluster) string {
	var b strings.Builder
	rows := 0
	for _, cl := range clusters {
		rows += len(cl.Findings)
	}
	b.Grow(64 + 128*len(clusters) + 128*rows)
	b.WriteString("clustered findings: ")
	b.WriteString(strconv.Itoa(len(clusters)))
	b.WriteString(" violation classes\n")
	for _, cl := range clusters {
		b.WriteString("\n[")
		b.WriteString(strconv.Itoa(len(cl.Findings)))
		b.WriteString(" finding(s)] ")
		b.WriteString(cl.Sig.String())
		b.WriteString("\n  campaigns: ")
		for i, label := range cl.Campaigns() {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(label)
		}
		b.WriteByte('\n')
		for _, f := range cl.Findings {
			b.WriteString("  ")
			b.WriteString(f.Campaign)
			n := utf8.RuneCountInString(f.Campaign)
			if f.Variant != "" {
				b.WriteByte('/')
				b.WriteString(f.Variant)
				n += 1 + utf8.RuneCountInString(f.Variant)
			}
			pad(&b, 24-n)
			column(&b, f.Point, 24)
			column(&b, f.FaultID, 44)
			b.WriteString(f.Object)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// column writes s left-justified in width runes and a separating
// space, as fmt's "%-*s " does.
func column(b *strings.Builder, s string, width int) {
	b.WriteString(s)
	pad(b, width-utf8.RuneCountInString(s))
}

const spaces = "                                             "

// pad writes n spaces of padding, if any, and the space that ends a
// column.
func pad(b *strings.Builder, n int) {
	b.WriteString(spaces[:max(n, 0)+1])
}
